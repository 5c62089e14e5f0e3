//! The discrete-event runtime engine.
//!
//! A faithful-in-spirit miniature of StarPU's execution model, which is
//! what the paper's evaluation runs on (natively and over SimGrid):
//!
//! * **pull-mode workers** — whenever a GPU has room in its execution
//!   pipeline it asks the scheduling policy for a task
//!   ([`Scheduler::pop_task`]);
//! * **prefetching** — inputs of queued tasks are fetched ahead of time so
//!   transfers overlap the current execution;
//! * **a shared PCI bus** — all host→GPU transfers are serialized through
//!   one FIFO bus of fixed bandwidth (the topology of Figure 2);
//! * **bounded GPU memory with eviction** — when a fetch does not fit, a
//!   victim is chosen (scheduler hook first — that is how DARTS installs
//!   LUF — with LRU as the default, like StarPU);
//! * **pinning** — inputs of the running task and in-flight transfers are
//!   not evictable, which both matches the model's
//!   `V(k,i) ∩ D(σ(k,i)) = ∅` constraint and makes the engine
//!   deadlock-free.
//!
//! The engine is single-threaded and fully deterministic: identical
//! inputs produce identical reports, event ties are broken by issue
//! order.
//!
//! **Fault injection.** A [`FaultPlan`] in [`RunConfig`] injects
//! fail-stop GPU deaths, transient transfer faults with bounded
//! retry/backoff, mid-run capacity shrinks and straggler slowdowns, all
//! keyed to the simulated clock so faulty runs replay identically. With
//! the default empty plan no fault events are seeded, so event sequence
//! numbers — and therefore traces and reports — are byte-identical to a
//! build without the subsystem.

use crate::clock::{self, Ticks};
use crate::equeue::EventQueue;
use crate::fault::FaultPlan;
use crate::memory::GpuMemory;
use crate::pipeline::Pipelines;
use crate::report::{GpuRunStats, OnlineStats, RunReport, TraceEvent};
use crate::scheduler::{missing_bytes_in, Hooks, MissingCache, RuntimeView, Scheduler};
use crate::spec::{Nanos, PlatformSpec};
use crate::trace::{TraceLog, TraceMode};
use memsched_model::{DataId, GpuId, TaskId, TaskSet};
use memsched_obs::{GaugeKind, ObsEvent, Probe, TraceSink};
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::time::Instant;

/// Engine options.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// How to record the run's [`TraceEvent`] stream: `Off` (default,
    /// fastest), `Full` (materialize the log `run_with_config` returns),
    /// or `Checksum` (stream into `RunReport::trace_checksum` at O(1)
    /// memory — the million-task mode).
    pub trace: TraceMode,
    /// Faults to inject during the run. The default ([`FaultPlan::none`])
    /// injects nothing and leaves every run byte-identical to a fault-free
    /// build.
    pub faults: FaultPlan,
    /// Online serving mode. `None` (the default) is batch mode: every
    /// task is handed to the scheduler up front via
    /// [`Scheduler::prepare`] and the run is byte-identical to a build
    /// without the admission subsystem. `Some` switches the engine to an
    /// admission loop that releases tasks as their
    /// [`TaskSet::arrival`](memsched_model::TaskSet::arrival) times pass,
    /// calling [`Scheduler::prepare_stream`] /
    /// [`Scheduler::on_task_arrival`] instead.
    pub admission: Option<AdmissionConfig>,
    /// Drive the run on the pre-refactor reference engine core — binary
    /// heap event queue, scan-every-GPU progress loop, every future
    /// arrival pushed at run start — instead of the flat calendar-queue
    /// core. Decisions, traces and reports are byte-identical either way
    /// (differential-proptested); only the engine's own wall time
    /// differs. Compiled in by the `naive` feature for the differential
    /// and scale tests.
    #[cfg(feature = "naive")]
    pub naive_core: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            trace: TraceMode::Off,
            faults: FaultPlan::none(),
            admission: None,
            #[cfg(feature = "naive")]
            naive_core: false,
        }
    }
}

impl RunConfig {
    /// Whether the reference (pre-refactor) engine core drives this run.
    #[inline]
    pub(crate) fn use_naive_core(&self) -> bool {
        #[cfg(feature = "naive")]
        {
            self.naive_core
        }
        #[cfg(not(feature = "naive"))]
        {
            false
        }
    }
}

/// Options of the online admission loop (see [`RunConfig::admission`]).
///
/// An arriving task is **admitted** — released to the scheduler — when
/// it is *feasible* (its input footprint fits the current capacity of at
/// least one alive GPU), the backlog bound below has room, and no
/// earlier arrival is still waiting; otherwise it is **deferred** into a
/// FIFO queue that is retried, strictly in order, whenever a task
/// completion frees backlog or pinned memory. A deferred task whose
/// footprint can never fit again (after fault shrinks) surfaces as
/// [`RunError::SchedulerStuck`] once the event queue drains — unless a
/// shedding [`ShedPolicy`] is active, in which case it is dropped with a
/// [`TraceEvent::TaskShed`] and the run completes gracefully.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum number of admitted-but-unfinished tasks. Arrivals beyond
    /// the bound are deferred until completions make room. `None`
    /// (default) admits every feasible arrival immediately. Under
    /// [`ShedPolicy::PriorityShed`] the same bound also caps the
    /// *deferred* queue: an overflow sheds the lowest-class task.
    pub max_backlog: Option<usize>,
    /// Overload-control policy. The default, [`ShedPolicy::DeferOnly`],
    /// takes no shedding branch at all and pins today's byte-identical
    /// defer-forever behavior.
    pub policy: ShedPolicy,
}

/// How the admission loop reacts to overload (see [`AdmissionConfig`]).
///
/// Deadlines are per-task *relative completion budgets* carried by the
/// [`TaskSet`] ([`TaskSet::deadline`], 0 = none); classes are per-task
/// tenant priorities ([`TaskSet::class_of`], higher = more important).
/// All decisions are functions of simulated state only, so same-seed
/// runs shed identically at any worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Never shed: every arrival is admitted or deferred forever
    /// (today's behavior, byte-identical to builds without the
    /// overload-control subsystem).
    #[default]
    DeferOnly,
    /// Deadline-aware shedding: reject an arrival whose estimated
    /// queueing delay (mean observed queueing delay plus the deferred
    /// backlog times the mean service time) already exceeds its
    /// deadline, and lazily expire deferred tasks that sit past their
    /// deadline. Tasks without a deadline are never shed this way.
    DeadlineShed,
    /// Everything [`ShedPolicy::DeadlineShed`] does, plus a bounded
    /// deferred queue: when deferring would push the queue past
    /// [`AdmissionConfig::max_backlog`], the lowest-class task among
    /// the queue and the new arrival is shed (ties drop the oldest).
    PriorityShed,
}

impl ShedPolicy {
    /// Parse a `--shed` command-line value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "defer" | "defer-only" | "deferonly" => Ok(Self::DeferOnly),
            "deadline" | "deadline-shed" => Ok(Self::DeadlineShed),
            "priority" | "priority-shed" => Ok(Self::PriorityShed),
            other => Err(format!(
                "--shed {other:?}: expected \"defer\", \"deadline\" or \"priority\""
            )),
        }
    }

    /// Stable lowercase name (CSV columns, metrics JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::DeferOnly => "defer",
            Self::DeadlineShed => "deadline",
            Self::PriorityShed => "priority",
        }
    }
}

/// Failure modes of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A task's inputs do not fit in a GPU memory at all.
    TaskTooLarge {
        /// The offending task.
        task: TaskId,
        /// Its input footprint.
        footprint: u64,
        /// The per-GPU memory capacity.
        capacity: u64,
    },
    /// The scheduler stopped producing tasks while some remain unfinished.
    SchedulerStuck {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// A transfer failed on every attempt of its retry budget (transient
    /// transfer faults, see [`FaultPlan`]).
    TransferFailed {
        /// Destination GPU of the doomed transfer.
        gpu: usize,
        /// The data item that could not be delivered.
        data: DataId,
        /// Attempts made (the configured `max_attempts`).
        attempts: u32,
    },
    /// Every GPU suffered a fail-stop fault before the task set finished.
    AllGpusFailed {
        /// Tasks completed before the last GPU died.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// The fault plan does not fit the platform (bad GPU index, zero
    /// retry budget, …). The message pinpoints the offending clause.
    InvalidFaultPlan(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::TaskTooLarge {
                task,
                footprint,
                capacity,
            } => write!(
                f,
                "task {task} needs {footprint} B of inputs but GPUs only have {capacity} B"
            ),
            RunError::SchedulerStuck { completed, total } => write!(
                f,
                "scheduler stalled after {completed}/{total} tasks completed"
            ),
            RunError::TransferFailed {
                gpu,
                data,
                attempts,
            } => write!(
                f,
                "transfer of data {data} to GPU {gpu} failed {attempts} times (retry budget exhausted)"
            ),
            RunError::AllGpusFailed { completed, total } => write!(
                f,
                "all GPUs failed with {completed}/{total} tasks completed"
            ),
            RunError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A transfer's attempt reached its delivery time.
    TransferDone(Transfer),
    TaskDone {
        gpu: u32,
        task: u32,
    },
    /// Fail-stop death; index into `FaultPlan::gpu_failures`.
    GpuFail {
        idx: u32,
    },
    /// Capacity shrink; index into `FaultPlan::capacity_shrinks`.
    Shrink {
        idx: u32,
    },
    /// Straggler onset; index into `FaultPlan::stragglers`.
    Straggle {
        idx: u32,
    },
    /// Online arrival of a task (admission loop only; batch runs and
    /// tasks arriving at t = 0 never seed one, keeping their event
    /// sequence numbering — and all tie-breaks — byte-identical to a
    /// batch build).
    Arrive {
        task: u32,
    },
}

/// One attempt of a transfer of `data` to `gpu`: `src` is the peer GPU
/// for NVLink transfers ([`FROM_HOST`] = host memory over the PCI bus),
/// and `attempt` numbers the delivery attempt (1 unless transfer faults
/// retried it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Transfer {
    gpu: u32,
    data: u32,
    src: u32,
    attempt: u32,
}

impl Transfer {
    /// The NVLink source GPU, if the transfer reads a peer replica.
    fn peer(&self) -> Option<u32> {
        (self.src != FROM_HOST).then_some(self.src)
    }
}

/// `src` sentinel for host→GPU transfers.
const FROM_HOST: u32 = u32::MAX;

/// Run `scheduler` over `ts` on `spec`, returning the execution report.
pub fn run(
    ts: &TaskSet,
    spec: &PlatformSpec,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    run_with_config(ts, spec, scheduler, &RunConfig::default()).map(|(r, _)| r)
}

/// As [`run`], with engine options; also returns the trace when enabled.
pub fn run_with_config(
    ts: &TaskSet,
    spec: &PlatformSpec,
    scheduler: &mut dyn Scheduler,
    config: &RunConfig,
) -> Result<(RunReport, Vec<TraceEvent>), RunError> {
    run_inner(ts, spec, scheduler, config, None)
}

/// As [`run_with_config`], additionally streaming typed
/// [`ObsEvent`]s into `probe`: transfer and compute spans, evictions
/// with the victim policy, per-decision wall times, fault instants and
/// occupancy gauges. The probe is also attached to the scheduler
/// (via [`Scheduler::attach_probe`], before `prepare`) so policies can
/// emit their own events — queue-depth gauges, steals.
///
/// The observed run takes exactly the same decisions as the unobserved
/// one: reports and engine traces are identical, only the side channel
/// differs, and the engine trace is the projection of the probe's
/// stream ([`TraceEvent::from_obs`]). On an `Err` return the probe may
/// hold transfer spans whose end was never reached; successful runs
/// always produce a well-formed stream (see
/// `memsched_obs::check_well_formed`).
pub fn run_observed(
    ts: &TaskSet,
    spec: &PlatformSpec,
    scheduler: &mut dyn Scheduler,
    config: &RunConfig,
    probe: &Probe,
) -> Result<(RunReport, Vec<TraceEvent>), RunError> {
    scheduler.attach_probe(probe.clone());
    run_inner(ts, spec, scheduler, config, Some(probe.clone()))
}

fn run_inner(
    ts: &TaskSet,
    spec: &PlatformSpec,
    scheduler: &mut dyn Scheduler,
    config: &RunConfig,
    obs: Option<Probe>,
) -> Result<(RunReport, Vec<TraceEvent>), RunError> {
    // Reject tasks that can never run before starting the clock.
    for t in ts.tasks() {
        if ts.task_footprint(t) > spec.memory_bytes {
            return Err(RunError::TaskTooLarge {
                task: t,
                footprint: ts.task_footprint(t),
                capacity: spec.memory_bytes,
            });
        }
    }

    let prepare_started = Instant::now();
    if config.admission.is_some() {
        scheduler.prepare_stream(ts, spec);
    } else {
        scheduler.prepare(ts, spec);
    }
    let prepare_wall = prepare_started.elapsed().as_nanos() as Nanos;

    let mut st = State::new(ts, spec, config, obs, scheduler.hooks());

    // Seed the fault timeline. With the default empty plan this pushes
    // nothing, so event sequence numbering — and therefore every
    // deterministic tie-break downstream — is untouched: a fault-free run
    // is byte-identical to one on a build without the subsystem.
    if !config.faults.is_empty() {
        config
            .faults
            .validate(spec.num_gpus)
            .map_err(RunError::InvalidFaultPlan)?;
        st.seed_faults();
    }
    if st.online {
        st.seed_arrivals(scheduler);
    }
    loop {
        st.sweep(scheduler)?;
        if st.completed + st.dropped() == ts.num_tasks() {
            break;
        }
        let Some((time, _, ev)) = st.events.pop() else {
            // No pending events and tasks remain. Under a shedding
            // policy, deferred tasks that nothing can ever admit again
            // (their only fitting GPU died or shrank away) are shed in
            // queue order and the run completes gracefully; otherwise —
            // every worker was given a chance to make progress above —
            // the schedule is stuck.
            if st.shed_policy() != ShedPolicy::DeferOnly && !st.deferred.is_empty() {
                while let Some(raw) = st.deferred.pop_front() {
                    st.drop_task(TaskId(raw), false);
                }
                continue;
            }
            return Err(RunError::SchedulerStuck {
                completed: st.completed,
                total: ts.num_tasks(),
            });
        };
        st.now = time;
        st.handle_event(scheduler, ev)?;
    }
    Ok(st.finish_run(scheduler, prepare_wall))
}

/// Nearest-rank quantile of a sample (0 when empty): the value at rank
/// `round((n − 1) · q)` of the sorted sample, found by selection, which
/// reorders `sample`.
fn quantile(sample: &mut [Nanos], q: f64) -> Nanos {
    if sample.is_empty() {
        return 0;
    }
    let rank = ((sample.len() - 1) as f64 * q).round() as usize;
    *sample.select_nth_unstable(rank).1
}

/// A set of GPU indices: one bit per GPU, 64 to a word. The flat core's
/// worklists.
#[derive(Clone, Debug)]
struct GpuSet {
    words: Vec<u64>,
}

impl GpuSet {
    /// All of GPUs `0..k` if `full`, else none of them.
    fn new(k: usize, full: bool) -> Self {
        let mut set = GpuSet {
            words: vec![0; k.div_ceil(64)],
        };
        if full {
            (0..k).for_each(|g| set.insert(g));
        }
        set
    }

    #[inline]
    fn insert(&mut self, g: usize) {
        self.words[g / 64] |= 1 << (g % 64);
    }

    #[inline]
    fn remove(&mut self, g: usize) {
        self.words[g / 64] &= !(1 << (g % 64));
    }

    #[inline]
    fn contains(&self, g: usize) -> bool {
        self.words[g / 64] >> (g % 64) & 1 == 1
    }

    /// Remove and return the smallest member at or above `from`.
    #[inline]
    fn take_first_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        let g = w * 64 + bits.trailing_zeros() as usize;
        self.remove(g);
        Some(g)
    }

    /// Move every member of `other` into this set.
    #[inline]
    fn absorb(&mut self, other: &mut GpuSet) {
        for (a, b) in self.words.iter_mut().zip(&mut other.words) {
            *a |= std::mem::take(b);
        }
    }
}

/// The state of one run. It borrows what the run is over — the task
/// set, the platform and the options — so every step of the run is a
/// method that takes at most the scheduler and its own operands.
struct State<'a> {
    ts: &'a TaskSet,
    spec: &'a PlatformSpec,
    config: &'a RunConfig,
    /// Per-worker scheduling clock: the ticks of every scheduler callback
    /// charged to each GPU's worker (see [`State::call`]), converted to
    /// nanoseconds once, in [`State::finish_run`].
    sched_wall: Vec<Ticks>,
    now: Nanos,
    seq: u64,
    events: EventQueue<Event>,
    mem: Vec<GpuMemory>,
    /// Missing-input counters per (GPU, task). Empty until a policy first
    /// asks (`RuntimeView::missing` builds them from `mem`); once built,
    /// kept in step with every residency transition by
    /// [`State::issue_load`] and [`State::evict`].
    missing: OnceCell<MissingCache>,
    /// Per GPU: popped-but-unfinished tasks in execution order. When
    /// `running[g]` is true, `pipeline.front(g)` is executing. One flat
    /// ring arena for all GPUs.
    pipeline: Pipelines,
    running: Vec<bool>,
    /// GPUs whose scheduler returned `None` with nothing changed since —
    /// do not hammer `pop_task` until the next event.
    stalled_pop: GpuSet,
    /// Worklist: GPUs whose local state changed since their last
    /// `progress` pass, so the pass could act. Marked by events touching
    /// the GPU, by [`State::wake_all`] clearing a stall latch, and by a
    /// memory-blocked prefetch (which must re-ask for a victim every
    /// pass, exactly as the reference core's full scan does).
    dirty: GpuSet,
    /// The optional hooks the engine calls: the policy's declaration
    /// ([`Scheduler::hooks`]) on the flat core, all of them on the
    /// reference core.
    hooks: Hooks,
    gpu_free_at: Vec<Nanos>,
    /// Per-bus drain time: when PCI bus `b` finishes its queued
    /// transfers (index [`PlatformSpec::bus_of`]). Single-bus platforms
    /// use one slot, so the arithmetic is bit-identical to the
    /// historical scalar field.
    buses: Vec<Nanos>,
    /// Per-bus occupied time (sum of granted transfer durations) —
    /// the report's `bus_busy_ns`.
    bus_busy: Vec<Nanos>,
    nvlink_free_at: Nanos,
    /// Per-GPU report ledger, kept as events happen: tasks, loads, bytes,
    /// evictions, busy and stall time, NVLink and cache bytes. `idle` and
    /// `sched_wall` are filled in when the run ends.
    stats: Vec<GpuRunStats>,
    completed: usize,
    flops_done: f64,
    /// The run's trace log (fed the projection of every recorded event).
    trace: TraceLog,
    /// Whether anything consumes events — a trace log other than `Off`
    /// or a probe. Every emission site is guarded by this flag, so an
    /// unrecorded run never builds an event.
    recording: bool,
    /// Per-GPU fail-stop flag (all false without faults).
    dead: Vec<bool>,
    /// Per-GPU speed factor applied to compute times (all 1.0 without
    /// faults; a straggler fault lowers it).
    speed: Vec<f64>,
    /// Fault shrinks blocked by pinned/in-flight data: `(gpu, target)`
    /// pairs re-attempted whenever that GPU releases pins.
    pending_shrinks: Vec<(usize, u64)>,
    /// Future arrivals not yet on the event timeline, as
    /// `(time, reserved seq, task)` sorted descending by `(time, seq)`:
    /// the next one is at the back. Empty in batch runs and on the
    /// reference core, which pushes every arrival at run start.
    arrivals: Vec<(Nanos, u64, u32)>,
    /// Serial number of the next transfer-fault decision.
    transfer_checks: u64,
    /// Transfer retries performed (fault injection).
    retries: u64,
    /// Tasks re-dispatched after fail-stop faults.
    redispatched: u64,
    /// GPUs lost to fail-stop faults.
    failures: u64,
    /// Per-GPU time of the last stall-accounting transition (see
    /// [`State::lane_advance`]).
    lane_last: Vec<Nanos>,
    /// Per-GPU number of in-flight transfers (issued, not yet done).
    inflight: Vec<u32>,
    /// Online serving mode (`RunConfig::admission` is set). All the
    /// admission fields below stay empty in batch runs.
    online: bool,
    /// Per-task admitted flag: `pop_task` may only return released
    /// tasks (debug-asserted in `progress`).
    released: Vec<bool>,
    /// Admitted-but-unfinished task count, bounded by
    /// [`AdmissionConfig::max_backlog`].
    backlog: usize,
    /// Arrived tasks awaiting admission, strictly FIFO.
    deferred: VecDeque<u32>,
    /// A lower bound on the earliest `arrival + deadline` among deferred
    /// tasks with a deadline (`Nanos::MAX` when none has one): lowered on
    /// each deferral, recomputed on each expiry walk. No deferred task
    /// can expire while `now` is at or before it.
    deferred_expiry_bound: Nanos,
    /// Per-completion task latency samples (completion − arrival).
    latencies: Vec<Nanos>,
    /// Per-start queueing-delay samples (compute start − arrival).
    queueing: Vec<Nanos>,
    /// Admission decisions taken.
    admitted: u64,
    /// Arrivals deferred at least once.
    deferrals: u64,
    /// Arrivals rejected by the shedding policy (never admitted).
    shed_tasks: u64,
    /// Deferred tasks dropped because their deadline lapsed while
    /// queued. Disjoint from `shed_tasks`.
    expired_tasks: u64,
    /// Dropped (shed + expired) tasks per tenant class.
    shed_per_class: Vec<u64>,
    /// Completed tasks per tenant class.
    done_per_class: Vec<u64>,
    /// Completions that finished past their deadline.
    deadline_violations: u64,
    /// Completions within their deadline (tasks without one always
    /// count) — the goodput numerator.
    good_completed: u64,
    /// Running sum of `queueing` samples (delay-estimator numerator).
    queueing_sum: Nanos,
    /// Running sum of started-task compute durations (delay-estimator
    /// service term).
    service_sum: Nanos,
    /// Reusable protected-prefix buffer of the prefetch loop (the union
    /// of input sets of earlier pipeline tasks, sorted unique).
    protect: Vec<u32>,
    /// Reusable merge scratch paired with `protect`; together they make
    /// the steady-state prefetch loop allocation-free.
    merge_scratch: Vec<u32>,
    /// Observation probe, if attached.
    obs: Option<Probe>,
}

impl<'a> State<'a> {
    /// Fresh state for a run of `ts` on `spec` under `config`; `hooks` is
    /// the policy's declaration.
    fn new(
        ts: &'a TaskSet,
        spec: &'a PlatformSpec,
        config: &'a RunConfig,
        obs: Option<Probe>,
        hooks: Hooks,
    ) -> Self {
        let k = spec.num_gpus;
        let m = ts.num_tasks();
        let online = config.admission.is_some();
        State {
            ts,
            spec,
            config,
            sched_wall: vec![0; k],
            now: 0,
            seq: 0,
            events: EventQueue::new(config.use_naive_core()),
            mem: (0..k)
                .map(|_| GpuMemory::new(spec.memory_bytes, ts.num_data()))
                .collect(),
            missing: OnceCell::new(),
            pipeline: Pipelines::new(k, spec.pipeline_depth),
            running: vec![false; k],
            stalled_pop: GpuSet::new(k, false),
            dirty: GpuSet::new(k, true),
            // The reference core calls every hook, declared or not.
            hooks: if config.use_naive_core() {
                Hooks::ALL
            } else {
                hooks
            },
            gpu_free_at: vec![0; k],
            buses: vec![0; spec.num_buses()],
            bus_busy: vec![0; spec.num_buses()],
            nvlink_free_at: 0,
            stats: vec![GpuRunStats::default(); k],
            completed: 0,
            flops_done: 0.0,
            // A batch run emits one LoadIssued+LoadDone pair per load plus a
            // TaskStarted/TaskFinished pair per task; 4·m is a generous head
            // start that kills reallocation churn in `Full` mode.
            trace: TraceLog::new(config.trace, 4 * m + 64),
            recording: config.trace != TraceMode::Off || obs.is_some(),
            dead: vec![false; k],
            speed: vec![1.0; k],
            pending_shrinks: Vec::new(),
            arrivals: Vec::new(),
            transfer_checks: 0,
            retries: 0,
            redispatched: 0,
            failures: 0,
            lane_last: vec![0; k],
            inflight: vec![0; k],
            online,
            released: if online { vec![false; m] } else { Vec::new() },
            backlog: 0,
            deferred: VecDeque::new(),
            deferred_expiry_bound: Nanos::MAX,
            latencies: Vec::with_capacity(if online { m } else { 0 }),
            queueing: Vec::with_capacity(if online { m } else { 0 }),
            admitted: 0,
            deferrals: 0,
            shed_tasks: 0,
            expired_tasks: 0,
            shed_per_class: Vec::new(),
            done_per_class: Vec::new(),
            deadline_violations: 0,
            good_completed: 0,
            queueing_sum: 0,
            service_sum: 0,
            protect: Vec::new(),
            merge_scratch: Vec::new(),
            obs,
        }
    }

    /// Whether the run executes the pre-refactor reference control flow
    /// (`RunConfig::naive_core`): full per-event progress scans, no
    /// all-resident fast path, every hook called, protected sets merged
    /// per pipeline entry, inputs touched at task start. `false` selects
    /// the flat core.
    #[inline]
    fn reference_core(&self) -> bool {
        self.config.use_naive_core()
    }

    /// The active shed policy of the run (`DeferOnly` for batch runs).
    fn shed_policy(&self) -> ShedPolicy {
        self.config
            .admission
            .as_ref()
            .map_or(ShedPolicy::DeferOnly, |a| a.policy)
    }

    /// Tasks dropped from the admission path (shed + expired) — the
    /// termination condition counts them alongside completions.
    fn dropped(&self) -> usize {
        (self.shed_tasks + self.expired_tasks) as usize
    }

    /// Run scheduler callback `f` on behalf of worker `gpu` against a
    /// view of the current state, and charge exactly the call's ticks on
    /// the scheduling clock to that worker. Returns the callback's result
    /// and the ticks, which `progress` stamps onto
    /// [`ObsEvent::Decision`].
    #[inline]
    fn call<R>(&mut self, gpu: usize, f: impl FnOnce(&RuntimeView<'_>) -> R) -> (R, Ticks) {
        let view = RuntimeView {
            ts: self.ts,
            spec: self.spec,
            now: self.now,
            memories: &self.mem,
            buffers: &self.pipeline,
            missing: &self.missing,
            gpu_free_at: &self.gpu_free_at,
            dead: &self.dead,
        };
        let start = clock::ticks();
        let r = f(&view);
        let dt = clock::ticks().saturating_sub(start);
        self.sched_wall[gpu] += dt;
        (r, dt)
    }

    fn push_event(&mut self, at: Nanos, ev: Event) {
        self.seq += 1;
        self.events.push(at, self.seq, ev);
    }

    /// Seed the fault timeline in plan order; events reference the plan
    /// by index.
    fn seed_faults(&mut self) {
        let faults = &self.config.faults;
        for (i, f) in faults.gpu_failures.iter().enumerate() {
            self.push_event(f.at, Event::GpuFail { idx: i as u32 });
        }
        for (i, s) in faults.capacity_shrinks.iter().enumerate() {
            self.push_event(s.at, Event::Shrink { idx: i as u32 });
        }
        for (i, s) in faults.stragglers.iter().enumerate() {
            self.push_event(s.at, Event::Straggle { idx: i as u32 });
        }
    }

    /// Online mode: put future arrivals on the event timeline, then hand
    /// the t = 0 arrivals through the admission loop before the clock
    /// starts. Tasks arriving at t = 0 deliberately get *no* event of
    /// their own: with every arrival at zero the event queue's sequence
    /// numbering is untouched, so an all-t=0 online run takes the exact
    /// tie-breaks of a batch run (the zero-cost-admission guarantee the
    /// golden tests pin).
    fn seed_arrivals(&mut self, scheduler: &mut dyn Scheduler) {
        let ts = self.ts;
        if self.reference_core() {
            // The reference core pushes every future arrival up front.
            for t in ts.tasks() {
                let at = ts.arrival(t);
                if at > 0 {
                    self.push_event(at, Event::Arrive { task: t.0 });
                }
            }
        } else {
            // Reserve each future arrival the sequence number the
            // up-front push would give it (task-id order, after the
            // fault events), then keep only the earliest pending arrival
            // on the timeline. It pops exactly where the full seeding
            // would pop it, so the `(time, seq)` stream is unchanged,
            // while the queue holds only the events in flight.
            for t in ts.tasks() {
                let at = ts.arrival(t);
                if at > 0 {
                    self.seq += 1;
                    self.arrivals.push((at, self.seq, t.0));
                }
            }
            self.arrivals
                .sort_unstable_by_key(|&(at, seq, _)| std::cmp::Reverse((at, seq)));
            self.push_next_arrival();
        }
        for t in ts.tasks() {
            if ts.arrival(t) == 0 {
                self.arrive(scheduler, t);
            }
        }
    }

    /// Put the earliest pending arrival on the event timeline under its
    /// reserved sequence number (called at run start and whenever an
    /// `Arrive` event pops, so exactly one arrival is queued at a time).
    fn push_next_arrival(&mut self) {
        if let Some((at, seq, task)) = self.arrivals.pop() {
            self.events.push(at, seq, Event::Arrive { task });
        }
    }

    /// Clear every worker's stalled-pop latch and mark the previously
    /// stalled ones dirty. Only they can act on the change: a non-stalled
    /// worker's pipeline is full, so its last `progress` pass already
    /// issued everything issuable. The flat core moves the stalled set
    /// one word at a time; the reference core walks the GPUs.
    fn wake_all(&mut self) {
        if self.reference_core() {
            for g in 0..self.running.len() {
                if self.stalled_pop.contains(g) {
                    self.stalled_pop.remove(g);
                    self.dirty.insert(g);
                }
            }
        } else {
            self.dirty.absorb(&mut self.stalled_pop);
        }
    }

    /// Bucket the time since the last transition for GPU `g`. Only the
    /// stall bucket needs explicit accounting: busy time is already
    /// charged per task, and idle is derived at report time as
    /// `makespan − busy − stall`. Called at every transition of the
    /// predicate (task start/end, transfer issue/completion, death).
    fn lane_advance(&mut self, g: usize) {
        let dt = self.now - self.lane_last[g];
        if dt > 0 && !self.running[g] && !self.dead[g] && self.inflight[g] > 0 {
            self.stats[g].stall += dt;
        }
        self.lane_last[g] = self.now;
    }

    /// Record one event: its projection goes to the trace log, the event
    /// itself to the probe, if one is attached.
    fn emit(&mut self, ev: ObsEvent) {
        self.trace.record(&ev);
        if let Some(p) = &self.obs {
            p.emit(ev);
        }
    }

    /// True when an observation probe is attached — the guard of events
    /// only the probe consumes (they project to no trace event).
    fn observed(&self) -> bool {
        self.obs.is_some()
    }

    /// Emit a fresh occupancy sample for GPU `g` (after a residency
    /// change); no-op without a probe.
    fn emit_occupancy(&mut self, g: usize) {
        if self.observed() {
            let cap = self.mem[g].capacity().max(1);
            self.emit(ObsEvent::Gauge {
                t: self.now,
                gpu: Some(g as u32),
                kind: GaugeKind::Occupancy,
                value: self.mem[g].used_bytes() as f64 / cap as f64,
            });
        }
    }

    /// Dispatch one popped event at `self.now`: the body of the event
    /// loop.
    fn handle_event(&mut self, scheduler: &mut dyn Scheduler, ev: Event) -> Result<(), RunError> {
        let (ts, config) = (self.ts, self.config);
        match ev {
            Event::TransferDone(tr) => {
                let (g, d, attempt) = (tr.gpu as usize, DataId(tr.data), tr.attempt);
                if let Some(h) = tr.peer() {
                    // Delivered or not, the peer read is over: release
                    // the read pin on the NVLink source replica.
                    self.mem[h as usize].unpin(d);
                    self.dirty.insert(h as usize);
                }
                if let Some(tf) = &config.faults.transfer_faults {
                    let serial = self.transfer_checks;
                    self.transfer_checks += 1;
                    if tf.faulty(serial) {
                        // The delivery failed in flight; retries always
                        // re-fetch from host over the PCI bus.
                        if attempt >= tf.max_attempts {
                            return Err(RunError::TransferFailed {
                                gpu: g,
                                data: d,
                                attempts: attempt,
                            });
                        }
                        self.retries += 1;
                        let ready = self.now + tf.backoff(attempt);
                        let (start, done) = self.grant_bus(g, ready, ts.data_size(d));
                        // The failed attempt's span closes undelivered and
                        // the retry opens a fresh span — always from host,
                        // matching the engine's re-fetch rule. The GPU's
                        // in-flight count is unchanged: the data stays
                        // `Loading` across the retry. Only the retry
                        // instant reaches the trace.
                        if self.recording {
                            self.close_transfer(self.now, tr, false);
                            self.emit(ObsEvent::TransferRetry {
                                t: self.now,
                                gpu: tr.gpu,
                                data: tr.data,
                                attempt: attempt + 1,
                            });
                        }
                        let retry = Transfer {
                            src: FROM_HOST,
                            attempt: attempt + 1,
                            ..tr
                        };
                        self.open_transfer(retry, start, done);
                        self.call(g, |view| {
                            scheduler.on_transfer_retry(GpuId(tr.gpu), d, attempt + 1, view)
                        });
                        return Ok(());
                    }
                }
                self.lane_advance(g);
                self.inflight[g] -= 1;
                self.dirty.insert(g);
                self.mem[g].finish_load(d);
                let (stats, size) = (&mut self.stats[g], ts.data_size(d));
                stats.loads += 1;
                stats.load_bytes += size;
                if tr.peer().is_some() {
                    stats.nvlink_loads += 1;
                    stats.nvlink_bytes += size;
                }
                if self.recording {
                    self.close_transfer(self.now, tr, true);
                    self.emit_occupancy(g);
                }
                // New residency can unblock pops (e.g. DARTS's free-task
                // counts change when a load lands).
                self.wake_all();
                if self.hooks.contains(Hooks::ON_DATA_LOADED) {
                    self.call(g, |view| scheduler.on_data_loaded(GpuId(tr.gpu), d, view));
                }
                // The load turned Loading bytes into evictable Resident
                // bytes: a deferred fault shrink may now complete.
                self.retry_pending_shrinks(scheduler, g);
            }
            Event::TaskDone { gpu, task } => {
                let g = gpu as usize;
                if self.dead[g] {
                    // Stale completion of a task lost to a fail-stop
                    // fault: the task was returned to the scheduler when
                    // the GPU died and will run elsewhere.
                    return Ok(());
                }
                let t = TaskId(task);
                debug_assert!(self.running[g] && self.pipeline.front(g) == Some(t));
                self.lane_advance(g);
                self.pipeline.pop_front(g);
                self.running[g] = false;
                self.dirty.insert(g);
                if self.recording {
                    self.emit(ObsEvent::ComputeEnd {
                        t: self.now,
                        gpu,
                        task,
                        interrupted: false,
                    });
                }
                // The flat core's only LRU touch of these inputs (see
                // `try_start`).
                for d in ts.input_ids(t) {
                    self.mem[g].unpin(d);
                    self.mem[g].touch(d);
                }
                self.completed += 1;
                self.stats[g].tasks += 1;
                self.flops_done += ts.flops(t);
                if self.online {
                    self.backlog -= 1;
                    let latency = self.now - ts.arrival(t);
                    self.latencies.push(latency);
                    bump_class(&mut self.done_per_class, ts.class_of(t));
                    let dl = ts.deadline(t);
                    if dl > 0 && latency > dl {
                        self.deadline_violations += 1;
                    } else {
                        self.good_completed += 1;
                    }
                }
                // A completion anywhere may unblock pops everywhere
                // (stealing, shared queues).
                self.wake_all();
                if self.hooks.contains(Hooks::ON_TASK_COMPLETE) {
                    self.call(g, |view| scheduler.on_task_complete(GpuId(gpu), t, view));
                }
                // The completion released pins: a deferred fault shrink
                // may now complete.
                self.retry_pending_shrinks(scheduler, g);
                // The completion freed backlog (and possibly memory): the
                // deferred-arrival queue may admit again. Completions are
                // the only event that can improve admissibility —
                // capacities only ever shrink — so this is the sole retry
                // point.
                self.retry_deferred(scheduler);
            }
            Event::GpuFail { idx } => {
                let g = config.faults.gpu_failures[idx as usize].gpu;
                if self.dead[g] {
                    return Ok(());
                }
                self.lane_advance(g);
                self.dead[g] = true;
                self.failures += 1;
                if self.running[g] {
                    // The interrupted task never completes: release its
                    // pins and refund the unexecuted tail of its busy
                    // charge (its stale TaskDone event is dropped on
                    // arrival by the dead-GPU guard above).
                    let head = self.pipeline.get(g, 0);
                    for d in ts.input_ids(head) {
                        self.mem[g].unpin(d);
                    }
                    let rem = self.gpu_free_at[g].saturating_sub(self.now);
                    self.stats[g].busy = self.stats[g].busy.saturating_sub(rem);
                    self.running[g] = false;
                    if self.observed() {
                        self.emit(ObsEvent::ComputeEnd {
                            t: self.now,
                            gpu: g as u32,
                            task: head.0,
                            interrupted: true,
                        });
                    }
                }
                if self.recording {
                    self.emit(ObsEvent::GpuFailed {
                        t: self.now,
                        gpu: g as u32,
                    });
                }
                self.gpu_free_at[g] = self.now;
                self.pending_shrinks.retain(|&(gg, _)| gg != g);
                let mut lost: Vec<TaskId> = Vec::with_capacity(self.pipeline.len(g));
                self.pipeline.drain_into(g, &mut lost);
                self.redispatched += lost.len() as u64;
                // Survivors must re-pop: the failure changes every
                // policy's routing state.
                self.wake_all();
                self.call(g, |view| {
                    scheduler.on_gpu_failed(GpuId(g as u32), &lost, view)
                });
                if self.dead.iter().all(|&x| x) && self.completed < ts.num_tasks() {
                    return Err(RunError::AllGpusFailed {
                        completed: self.completed,
                        total: ts.num_tasks(),
                    });
                }
                // The failure changed the platform under the admission
                // loop's feet: re-check the deferred queue. The lost
                // tasks stay admitted (the scheduler requeued them and
                // they run elsewhere — the backlog still counts them),
                // but deferred tasks whose footprint no longer fits any
                // survivor are shed under a shedding policy, and the
                // FIFO retry keeps the queue consistent with the new
                // capacity picture. Under `DeferOnly` this is a provable
                // no-op — a failure never improves admissibility — so
                // fault-injected golden traces stay byte-identical.
                if self.online {
                    self.recheck_deferred_after_fault(scheduler);
                }
            }
            Event::Shrink { idx } => {
                let s = config.faults.capacity_shrinks[idx as usize];
                if self.dead[s.gpu] {
                    return Ok(());
                }
                if !self.apply_shrink(scheduler, s.gpu, s.new_capacity) {
                    // Pinned or in-flight data blocked part of the
                    // shrink; tighten further as the GPU's pins release.
                    self.pending_shrinks.push((s.gpu, s.new_capacity));
                }
                // A shrink, like a failure, can strand deferred tasks
                // (see the GpuFail arm). No-op under `DeferOnly`.
                if self.online {
                    self.recheck_deferred_after_fault(scheduler);
                }
            }
            Event::Straggle { idx } => {
                let s = config.faults.stragglers[idx as usize];
                if self.dead[s.gpu] {
                    return Ok(());
                }
                self.speed[s.gpu] = s.factor;
                self.dirty.insert(s.gpu);
                if self.recording {
                    self.emit(ObsEvent::GpuSlowed {
                        t: self.now,
                        gpu: s.gpu as u32,
                        factor: s.factor,
                    });
                }
            }
            Event::Arrive { task } => {
                self.push_next_arrival();
                self.arrive(scheduler, TaskId(task));
            }
        }
        Ok(())
    }

    /// Per-round worklist sweep over every GPU: only GPUs whose local
    /// state changed since their last pass can act (an event touched
    /// them, a wake cleared their stall latch, or a memory-blocked
    /// prefetch must re-ask for a victim). A clean GPU's pipeline is
    /// full-or-stalled and its last pass already issued every issuable
    /// prefetch, so skipping it takes the exact same decisions as the
    /// reference core's full scan — the differential proptests pin this.
    /// The reference core scans all.
    ///
    /// The flat core takes the dirty GPUs from the bitset in ascending
    /// order and re-reads it after each pass, so a GPU marked during the
    /// sweep is visited in it exactly when its index is above the current
    /// one — the order of the reference core's index loop. A dead GPU's
    /// mark is dropped: nothing else reads it, and a dead GPU never
    /// progresses.
    fn sweep(&mut self, scheduler: &mut dyn Scheduler) -> Result<(), RunError> {
        if self.reference_core() {
            for g in 0..self.spec.num_gpus {
                if !self.dead[g] {
                    self.dirty.remove(g);
                    self.progress(scheduler, g)?;
                }
            }
            return Ok(());
        }
        let mut next = 0;
        while let Some(g) = self.dirty.take_first_from(next) {
            next = g + 1;
            if !self.dead[g] {
                self.progress(scheduler, g)?;
            }
        }
        Ok(())
    }

    /// Close the run's accounting and assemble the report.
    fn finish_run(
        mut self,
        scheduler: &mut dyn Scheduler,
        prepare_wall: Nanos,
    ) -> (RunReport, Vec<TraceEvent>) {
        // Close the stall accounting at the makespan, then close transfer
        // spans still in flight (prefetches issued for tasks that were no
        // longer needed once the last task finished). The event heap pops
        // in completion order, which on each link equals grant order, so
        // the probe's FIFO span pairing stays valid.
        for g in 0..self.spec.num_gpus {
            self.lane_advance(g);
        }
        if self.observed() {
            while let Some((time, _, ev)) = self.events.pop() {
                if let Event::TransferDone(tr) = ev {
                    self.close_transfer(time, tr, false);
                }
            }
        }

        let now = self.now;
        for (s, &ticks) in self.stats.iter_mut().zip(&self.sched_wall) {
            s.idle = now.saturating_sub(s.busy + s.stall);
            s.sched_wall = clock::ticks_to_ns(ticks);
        }
        let per_gpu = std::mem::take(&mut self.stats);
        let log = std::mem::replace(&mut self.trace, TraceLog::Off);
        let (trace, trace_checksum) = log.finish();
        let report = RunReport {
            scheduler: scheduler.name(),
            makespan: now,
            total_flops: self.flops_done,
            total_load_bytes: per_gpu.iter().map(|g| g.load_bytes).sum(),
            total_loads: per_gpu.iter().map(|g| g.loads).sum(),
            total_evictions: per_gpu.iter().map(|g| g.evictions).sum(),
            sched_wall: per_gpu.iter().map(|g| g.sched_wall).sum(),
            per_gpu,
            prepare_wall,
            transfer_retries: self.retries,
            gpu_failures: self.failures,
            tasks_redispatched: self.redispatched,
            bus_busy_ns: std::mem::take(&mut self.bus_busy),
            online: self.online.then(|| {
                // Per-class vectors are only materialized when classes are
                // in play or something was dropped, so class-less
                // `DeferOnly` reports serialize exactly as before this
                // field existed.
                let dropped = self.dropped() as u64;
                let per_class = self.ts.num_classes() > 1 || dropped > 0;
                let rate = |n: u64| {
                    if now == 0 {
                        0.0
                    } else {
                        n as f64 / (now as f64 / 1e9)
                    }
                };
                OnlineStats {
                    tasks_admitted: self.admitted,
                    tasks_deferred: self.deferrals,
                    tasks_shed: self.shed_tasks,
                    deadline_expired: self.expired_tasks,
                    shed_per_class: if per_class {
                        std::mem::take(&mut self.shed_per_class)
                    } else {
                        Vec::new()
                    },
                    completed_per_class: if per_class {
                        std::mem::take(&mut self.done_per_class)
                    } else {
                        Vec::new()
                    },
                    deadline_violations: self.deadline_violations,
                    p50_latency: quantile(&mut self.latencies, 0.50),
                    p99_latency: quantile(&mut self.latencies, 0.99),
                    mean_latency: if self.latencies.is_empty() {
                        0
                    } else {
                        self.latencies.iter().sum::<Nanos>() / self.latencies.len() as Nanos
                    },
                    p50_queueing: quantile(&mut self.queueing, 0.50),
                    p99_queueing: quantile(&mut self.queueing, 0.99),
                    throughput_tps: rate(self.completed as u64),
                    goodput_tps: rate(self.good_completed),
                }
            }),
            trace_checksum,
        };
        (report, trace)
    }

    /// Give GPU `g` every chance to advance: refill its pipeline from the
    /// scheduler, issue prefetches, and start the head task. Errs when a
    /// popped task can no longer fit the GPU's (possibly fault-shrunk)
    /// capacity.
    fn progress(&mut self, scheduler: &mut dyn Scheduler, g: usize) -> Result<(), RunError> {
        let ts = self.ts;
        // 1. Refill the pipeline.
        while self.pipeline.len(g) < self.spec.pipeline_depth && !self.stalled_pop.contains(g) {
            let (popped, pop_ticks) =
                self.call(g, |view| scheduler.pop_task(GpuId(g as u32), view));
            if self.observed() {
                self.emit(ObsEvent::Decision {
                    t: self.now,
                    gpu: g as u32,
                    task: popped.map(|t| t.0),
                    wall_ns: clock::ticks_to_ns(pop_ticks),
                });
            }
            let Some(t) = popped else {
                self.stalled_pop.insert(g);
                break;
            };
            debug_assert!(
                !self.online || self.released[t.index()],
                "online scheduler popped task {t:?} before its admission"
            );
            // The upfront feasibility check used the nominal capacity; a
            // fault shrink may have lowered this GPU's since. A task that
            // cannot ever fit must fail loudly, not stall.
            self.check_fits(g, t)?;
            // Residency split of the placement, counted exactly once per
            // pop: missing bytes still need a fetch, the rest of the
            // footprint is a prefix-cache hit.
            let miss = missing_bytes_in(ts, &self.mem[g], t);
            let hit = ts.task_footprint(t).saturating_sub(miss);
            self.stats[g].cache_hit_bytes += hit;
            self.stats[g].cache_miss_bytes += miss;
            if self.observed() {
                self.emit(ObsEvent::CacheAccess {
                    t: self.now,
                    gpu: g as u32,
                    task: t.0,
                    hit_bytes: hit,
                    miss_bytes: miss,
                });
            }
            self.pipeline.push_back(g, t)
        }

        // 2. Start the head task before touching memory, so its inputs are
        //    pinned against the prefetches issued below.
        self.try_start(g);

        // Flat-core fast path: when no queued task misses any input, the
        // whole issue loop below is a provable no-op (every residency check
        // takes the `continue`, nothing is evicted or loaded), so the prefix
        // merges can be skipped on the strength of one residency read per
        // queued input. The reference core executes the full pass
        // unconditionally.
        let mem = &self.mem[g];
        if !self.reference_core()
            && self.pipeline.iter(g).all(|t| {
                ts.inputs(t)
                    .iter()
                    .all(|&d| mem.is_resident_or_loading(DataId(d)))
            })
        {
            return Ok(());
        }

        // 3. Issue prefetches in pipeline order. Stop at the first fetch that
        //    does not fit to preserve the intended load order. A fetch for the
        //    idx-th queued task may never evict data needed by an earlier
        //    pipeline task (`protect` accumulates the prefix of input sets):
        //    those tasks run first, so evicting their data would only create
        //    reload churn — the livelock-free guarantee of the engine.
        // Both buffers live on `State` so the steady-state loop reuses their
        // capacity; they are taken out for the duration of the pass because
        // `pick_victim` borrows all of `self`.
        let mut protect = std::mem::take(&mut self.protect);
        let mut scratch = std::mem::take(&mut self.merge_scratch);
        protect.clear();
        // Pipeline entries whose inputs are in `protect`. `pick_victim` is
        // its only reader, so the flat core merges the prefix only once a
        // fetch must evict, and only up to the current entry: the set each
        // victim choice sees is the one the reference core's per-entry
        // merges build.
        let mut merged = 0;
        'issue: for idx in 0..self.pipeline.len(g) {
            let t = self.pipeline.get(g, idx);
            if self.reference_core() {
                self.merge_prefix(g, idx, &mut merged, &mut protect, &mut scratch);
            }
            for &raw in ts.inputs(t) {
                let d = DataId(raw);
                if self.mem[g].is_resident_or_loading(d) {
                    continue;
                }
                // Make room, never evicting protected inputs.
                while self.mem[g].free_bytes() < ts.data_size(d) {
                    self.merge_prefix(g, idx, &mut merged, &mut protect, &mut scratch);
                    let Some((v, by_scheduler)) = self.pick_victim(scheduler, g, &protect) else {
                        // Nothing evictable. If the task's footprint
                        // exceeds the (possibly fault-shrunk) capacity it
                        // can never fit — fail loudly. Otherwise the
                        // blockage is transient pins: retry later.
                        self.check_fits(g, t)?;
                        // Stay on the worklist: the reference core asks
                        // for a victim again on every pass while blocked
                        // (`choose_victim` may mutate policy state), so
                        // the worklist core must repeat the pass too.
                        self.dirty.insert(g);
                        break 'issue;
                    };
                    self.evict(scheduler, g, v, by_scheduler);
                }
                self.issue_load(scheduler, g, d);
            }
        }
        self.protect = protect;
        self.merge_scratch = scratch;

        // 4. The prefetches above may have completed synchronously-needed
        //    state changes; give the head another chance to start.
        self.try_start(g);
        Ok(())
    }

    /// Err with [`RunError::TaskTooLarge`] when task `t`'s inputs exceed
    /// GPU `g`'s current (possibly fault-shrunk) capacity.
    fn check_fits(&self, g: usize, t: TaskId) -> Result<(), RunError> {
        let (footprint, capacity) = (self.ts.task_footprint(t), self.mem[g].capacity());
        if footprint > capacity {
            return Err(RunError::TaskTooLarge {
                task: t,
                footprint,
                capacity,
            });
        }
        Ok(())
    }

    /// Fetch `d` onto GPU `g`, which has room for it (Absent → Loading):
    /// from a peer replica over the NVLink fabric when one is available
    /// (the §VI extension), otherwise over the GPU's shared PCI bus.
    fn issue_load(&mut self, scheduler: &mut dyn Scheduler, g: usize, d: DataId) {
        let size = self.ts.data_size(d);
        self.mem[g].begin_load(d, size);
        if let Some(missing) = self.missing.get_mut() {
            missing.load_issued(self.ts, g, d);
        }
        // Replicas on fault-killed GPUs are unreachable.
        let peer = self.spec.nvlink_bandwidth.and_then(|_| {
            (0..self.mem.len()).find(|&h| h != g && !self.dead[h] && self.mem[h].is_resident(d))
        });
        let (start, done, src) = match peer {
            Some(h) => {
                // Pin the source replica for the transfer duration so it
                // cannot be evicted mid-copy.
                self.mem[h].pin(d);
                let start = self.nvlink_free_at.max(self.now);
                let done = start + self.spec.nvlink_time(size);
                self.nvlink_free_at = done;
                (start, done, h as u32)
            }
            None => {
                let (start, done) = self.grant_bus(g, self.now, size);
                (start, done, FROM_HOST)
            }
        };
        let tr = Transfer {
            gpu: g as u32,
            data: d.0,
            src,
            attempt: 1,
        };
        self.open_transfer(tr, start, done);
        self.lane_advance(g);
        self.inflight[g] += 1;
        // Notify the policy at issue time: `is_resident_or_loading`
        // already counts this data, so policies maintaining free-task
        // state incrementally must observe the transition now, not at
        // transfer completion.
        if self.hooks.contains(Hooks::ON_LOAD_ISSUED) {
            self.call(g, |view| scheduler.on_load_issued(GpuId(g as u32), d, view));
        }
    }

    /// Grant GPU `g`'s PCI bus to a `size`-byte transfer ready at
    /// `ready`, first come first served: it starts once both it and the
    /// bus are free. Returns `(start, done)`.
    fn grant_bus(&mut self, g: usize, ready: Nanos, size: u64) -> (Nanos, Nanos) {
        let bus = self.spec.bus_of(g);
        let start = self.buses[bus].max(ready);
        let done = start + self.spec.transfer_time(size);
        self.buses[bus] = done;
        self.bus_busy[bus] += done - start;
        (start, done)
    }

    /// Put transfer attempt `tr` on the timeline: granted its link at
    /// `start`, delivered at `done`. The span begins at the grant, but
    /// the GPU is starved from the issue instant — `bus_wait` carries the
    /// queueing delay so the stall breakdown (and the trace's
    /// `LoadIssued`) can recover it.
    fn open_transfer(&mut self, tr: Transfer, start: Nanos, done: Nanos) {
        self.push_event(done, Event::TransferDone(tr));
        if self.recording {
            self.emit(ObsEvent::TransferBegin {
                t: start,
                gpu: tr.gpu,
                data: tr.data,
                bytes: self.ts.data_size(DataId(tr.data)),
                bus_wait: start - self.now,
                bus: self.spec.bus_of(tr.gpu as usize) as u32,
                peer: tr.peer(),
                attempt: tr.attempt,
                done_at: done,
            });
        }
    }

    /// Close the span of transfer attempt `tr` at `t`: delivered, failed
    /// in flight, or still in flight when the run ended.
    fn close_transfer(&mut self, t: Nanos, tr: Transfer, delivered: bool) {
        self.emit(ObsEvent::TransferEnd {
            t,
            gpu: tr.gpu,
            data: tr.data,
            bytes: self.ts.data_size(DataId(tr.data)),
            bus: self.spec.bus_of(tr.gpu as usize) as u32,
            peer: tr.peer(),
            attempt: tr.attempt,
            delivered,
        });
    }

    /// Evict `v` from GPU `g` (Resident → Absent): residency, ledger and
    /// missing-input counters, then the [`ObsEvent::Eviction`] event and
    /// occupancy gauge, then [`Scheduler::on_data_evicted`] if declared.
    /// `by_scheduler` tags whose choice `v` was (see `pick_victim`).
    fn evict(&mut self, scheduler: &mut dyn Scheduler, g: usize, v: DataId, by_scheduler: bool) {
        let bytes = self.ts.data_size(v);
        self.mem[g].evict(v, bytes);
        self.stats[g].evictions += 1;
        if let Some(missing) = self.missing.get_mut() {
            missing.evicted(self.ts, g, v);
        }
        if self.recording {
            self.emit(ObsEvent::Eviction {
                t: self.now,
                gpu: g as u32,
                data: v.0,
                bytes,
                by_scheduler,
            });
            self.emit_occupancy(g);
        }
        if self.hooks.contains(Hooks::ON_DATA_EVICTED) {
            self.call(g, |view| {
                scheduler.on_data_evicted(GpuId(g as u32), v, view)
            });
        }
    }

    /// Start the head task of GPU `g` if it is not running and all its
    /// inputs are resident; pins its inputs for the duration of the
    /// execution.
    ///
    /// Only the reference core also touches them here. Victim walks are
    /// the only readers of the LRU order, and they skip pinned data, so
    /// where a pinned input sits in the list changes no choice; `TaskDone`
    /// touches the same inputs in the same order, which leaves the list as
    /// the two touches would. A fail-stop unpins them untouched, but no
    /// later decision reads a dead GPU's LRU order.
    fn try_start(&mut self, g: usize) {
        let ts = self.ts;
        if self.running[g] {
            return;
        }
        let Some(head) = self.pipeline.front(g) else {
            return;
        };
        if !ts.input_ids(head).all(|d| self.mem[g].is_resident(d)) {
            return;
        }
        for d in ts.input_ids(head) {
            self.mem[g].pin(d);
            if self.reference_core() {
                self.mem[g].touch(d);
            }
        }
        self.lane_advance(g);
        self.running[g] = true;
        if self.online {
            let q = self.now - ts.arrival(head);
            self.queueing.push(q);
            self.queueing_sum += q;
        }
        if self.recording {
            self.emit(ObsEvent::ComputeBegin {
                t: self.now,
                gpu: g as u32,
                task: head.0,
            });
        }
        let base = self.spec.compute_time_on(g, ts.flops(head));
        // A straggler fault divides the GPU's effective speed; the untouched
        // 1.0 path preserves the fault-free durations bit-for-bit.
        let dur = if self.speed[g] == 1.0 {
            base
        } else {
            (base as f64 / self.speed[g]).ceil() as Nanos
        };
        self.stats[g].busy += dur;
        if self.online {
            self.service_sum += dur;
        }
        let end = self.now + dur;
        self.gpu_free_at[g] = end;
        self.push_event(
            end,
            Event::TaskDone {
                gpu: g as u32,
                task: head.0,
            },
        );
    }

    /// Merge the inputs of GPU `g`'s pipeline entries `*merged..=idx` into
    /// `protect`, using `scratch`, and advance `*merged` past `idx`. The
    /// reference core allocates a new buffer per merge, as the
    /// pre-refactor `merge_sorted` did, to keep that cost profile.
    fn merge_prefix(
        &self,
        g: usize,
        idx: usize,
        merged: &mut usize,
        protect: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
    ) {
        while *merged <= idx {
            let inputs = self.ts.inputs(self.pipeline.get(g, *merged));
            if self.reference_core() {
                *scratch = Vec::with_capacity(protect.len() + inputs.len());
            }
            merge_sorted_into(protect, inputs, scratch);
            std::mem::swap(protect, scratch);
            *merged += 1;
        }
    }

    /// Choose an eviction victim on GPU `g`: ask the scheduler first (LUF)
    /// if it declares [`Hooks::CHOOSE_VICTIM`], validate its answer, fall
    /// back to LRU. `protect` holds the inputs of the task the fetch is for
    /// and of the pipeline entries ahead of it. The flag in the result
    /// records whether the scheduler's choice was used (`true`) or the LRU
    /// fallback (`false`) — the eviction-policy tag on
    /// [`ObsEvent::Eviction`].
    fn pick_victim(
        &mut self,
        scheduler: &mut dyn Scheduler,
        g: usize,
        protect: &[u32],
    ) -> Option<(DataId, bool)> {
        let unprotected = |d: DataId| protect.binary_search(&d.0).is_err();
        if self.hooks.contains(Hooks::CHOOSE_VICTIM) {
            let (choice, _) = self.call(g, |view| scheduler.choose_victim(GpuId(g as u32), view));
            let mem = &self.mem[g];
            if let Some(v) =
                choice.filter(|&v| mem.is_resident(v) && !mem.is_pinned(v) && unprotected(v))
            {
                return Some((v, true));
            }
        }
        // LRU fallback, skipping protected items: walk the memory's
        // intrusive LRU list from the oldest end instead of scanning all
        // data.
        self.mem[g]
            .lru_victim_where(unprotected)
            .map(|v| (v, false))
    }

    /// Apply a fault-induced capacity shrink on GPU `g`: evict down to
    /// `target` bytes (scheduler victim choice first, LRU fallback — the
    /// same policy path as memory-pressure eviction), then lower the
    /// capacity as far as the evictions allow. Pinned and in-flight data
    /// cannot be freed, so the capacity may land above `target`; returns
    /// whether the target was fully reached. Every actual capacity change
    /// emits [`TraceEvent::CapacityShrunk`] and fires
    /// [`Scheduler::on_capacity_changed`].
    fn apply_shrink(&mut self, scheduler: &mut dyn Scheduler, g: usize, target: u64) -> bool {
        let mut evicted_any = false;
        self.dirty.insert(g);
        while self.mem[g].used_bytes() > target {
            let Some((v, by_scheduler)) = self.pick_victim(scheduler, g, &[]) else {
                break;
            };
            self.evict(scheduler, g, v, by_scheduler);
            evicted_any = true;
        }
        let effective = target.max(self.mem[g].used_bytes());
        if effective != self.mem[g].capacity() {
            self.mem[g].set_capacity(effective);
            if self.recording {
                self.emit(ObsEvent::CapacityShrunk {
                    t: self.now,
                    gpu: g as u32,
                    capacity: effective,
                });
                self.emit_occupancy(g);
            }
            self.call(g, |view| {
                scheduler.on_capacity_changed(GpuId(g as u32), effective, view)
            });
        }
        if evicted_any {
            // Residency changed under the schedulers' feet: let them re-pop.
            self.wake_all();
        }
        effective <= target
    }

    /// Re-attempt the deferred fault shrinks of GPU `g` (pins may have just
    /// been released by a completion or a finished load).
    fn retry_pending_shrinks(&mut self, scheduler: &mut dyn Scheduler, g: usize) {
        if self.pending_shrinks.is_empty() {
            return;
        }
        // In the order they were deferred; one that reaches its target
        // is done.
        let mut pending = std::mem::take(&mut self.pending_shrinks);
        pending.retain(|&(gg, target)| gg != g || !self.apply_shrink(scheduler, g, target));
        self.pending_shrinks = pending;
    }

    /// Process the online arrival of task `t`: record it, then admit it to
    /// the scheduler, defer it into the FIFO queue, or — under a shedding
    /// [`ShedPolicy`] — reject it outright. Admission is strictly
    /// first-come-first-served — a feasible arrival still queues behind
    /// earlier deferred tasks. With the default `DeferOnly` policy no
    /// shedding branch is ever taken, keeping the event stream
    /// byte-identical to the pre-overload-control engine.
    fn arrive(&mut self, scheduler: &mut dyn Scheduler, t: TaskId) {
        let ts = self.ts;
        if self.recording {
            self.emit(ObsEvent::TaskArrived {
                t: self.now,
                task: t.0,
            });
        }
        let policy = self.shed_policy();
        if policy != ShedPolicy::DeferOnly {
            // Lazy expiry: an arrival is the clock tick on which deferred
            // tasks past their deadline are dropped (no timer events are
            // seeded, so event sequence numbers — and every tie-break
            // downstream — are untouched).
            self.expire_deferred();
            // Predictive shed: reject now if the estimated queueing delay
            // already blows the arrival's completion budget.
            let dl = ts.deadline(t);
            if dl > 0 && self.estimated_delay() > dl {
                self.drop_task(t, false);
                return;
            }
        }
        if self.deferred.is_empty() && self.admissible(t) {
            self.admit(scheduler, t);
            return;
        }
        // PriorityShed bounds the deferred queue by `max_backlog`: an
        // overflow sheds the lowest-class task among the queue and the
        // new arrival (ties drop the oldest, i.e. the front-most).
        if policy == ShedPolicy::PriorityShed
            && self
                .max_backlog()
                .is_some_and(|bound| self.deferred.len() >= bound)
        {
            let (i, raw) = self
                .deferred
                .iter()
                .enumerate()
                .min_by_key(|&(_, &raw)| ts.class_of(TaskId(raw)))
                .map(|(i, &raw)| (i, raw))
                .expect("deferred queue non-empty at overflow");
            if ts.class_of(TaskId(raw)) <= ts.class_of(t) {
                self.deferred.remove(i);
                self.drop_task(TaskId(raw), false);
            } else {
                self.drop_task(t, false);
                return;
            }
        }
        self.deferrals += 1;
        self.deferred.push_back(t.0);
        if ts.deadline(t) > 0 {
            self.deferred_expiry_bound = self
                .deferred_expiry_bound
                .min(ts.arrival(t).saturating_add(ts.deadline(t)));
        }
        if self.recording {
            self.emit(ObsEvent::TaskDeferred {
                t: self.now,
                task: t.0,
            });
        }
    }

    /// The admission backlog bound, if any ([`AdmissionConfig::max_backlog`]).
    fn max_backlog(&self) -> Option<usize> {
        self.config.admission.as_ref().and_then(|a| a.max_backlog)
    }

    /// Deterministic queueing-delay estimate for an arrival, from simulated
    /// state only: the mean observed queueing delay so far plus the deferred
    /// backlog times the mean observed service time (integer arithmetic, so
    /// worker counts and wall clocks cannot perturb it). Cold start — before
    /// any task started — estimates 0.
    fn estimated_delay(&self) -> Nanos {
        let started = self.queueing.len() as Nanos;
        if started == 0 {
            return 0;
        }
        let mean_q = self.queueing_sum / started;
        let mean_s = self.service_sum / started;
        mean_q + self.deferred.len() as Nanos * mean_s
    }

    /// Drop task `t` from the admission path: `expired` distinguishes a
    /// deferred task that sat past its deadline
    /// ([`TraceEvent::DeadlineExpired`]) from a policy rejection
    /// ([`TraceEvent::TaskShed`]). The task is never released, so no
    /// scheduler ever sees it — the engine-side guarantee behind the chaos
    /// harness's "no shed task ever executes" invariant.
    fn drop_task(&mut self, t: TaskId, expired: bool) {
        debug_assert!(!self.released[t.index()], "dropped an admitted task {t:?}");
        bump_class(&mut self.shed_per_class, self.ts.class_of(t));
        let (now, task) = (self.now, t.0);
        if expired {
            self.expired_tasks += 1;
            if self.recording {
                self.emit(ObsEvent::DeadlineExpired { t: now, task });
            }
        } else {
            self.shed_tasks += 1;
            if self.recording {
                self.emit(ObsEvent::TaskShed { t: now, task });
            }
        }
    }

    /// Lazily expire deferred tasks whose completion deadline has passed
    /// (`now` strictly beyond `arrival + deadline`). Only called under a
    /// shedding policy, from existing event handlers — never from a timer —
    /// so it cannot perturb event sequence numbering. The flat core skips
    /// the walk while `now` is at or before `deferred_expiry_bound`, when
    /// it would expire nothing; the reference core always walks.
    fn expire_deferred(&mut self) {
        if !self.reference_core() && self.now <= self.deferred_expiry_bound {
            return;
        }
        let ts = self.ts;
        let mut bound = Nanos::MAX;
        let mut i = 0;
        while i < self.deferred.len() {
            let t = TaskId(self.deferred[i]);
            let dl = ts.deadline(t);
            if dl == 0 {
                i += 1;
                continue;
            }
            let expiry = ts.arrival(t).saturating_add(dl);
            if self.now > expiry {
                self.deferred.remove(i);
                self.drop_task(t, true);
            } else {
                bound = bound.min(expiry);
                i += 1;
            }
        }
        self.deferred_expiry_bound = bound;
    }

    /// Shed deferred tasks whose footprint no longer fits any alive GPU —
    /// they can never be admitted again after a fail-stop or shrink fault.
    fn shed_unfit_deferred(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            let t = TaskId(self.deferred[i]);
            if self.fits_alive_gpu(t) {
                i += 1;
            } else {
                self.deferred.remove(i);
                self.drop_task(t, false);
            }
        }
    }

    /// Re-check the admission state after a fail-stop or shrink fault
    /// (the `serve --faults` composition fix): under a shedding policy,
    /// expire overdue deferrals and shed the ones stranded by the lost
    /// capacity; then retry the FIFO as a completion would. Under
    /// `DeferOnly` the whole pass is a provable no-op — faults never
    /// improve admissibility, so the FIFO head stays inadmissible and no
    /// event is emitted — keeping fault-injected golden traces
    /// byte-identical.
    fn recheck_deferred_after_fault(&mut self, scheduler: &mut dyn Scheduler) {
        if self.shed_policy() != ShedPolicy::DeferOnly {
            self.expire_deferred();
            self.shed_unfit_deferred();
        }
        self.retry_deferred(scheduler);
    }

    /// Whether task `t`'s inputs fit the current capacity of at least one
    /// alive GPU.
    fn fits_alive_gpu(&self, t: TaskId) -> bool {
        let footprint = self.ts.task_footprint(t);
        (0..self.mem.len()).any(|g| !self.dead[g] && footprint <= self.mem[g].capacity())
    }

    /// Whether task `t` can be admitted right now: it fits an alive GPU
    /// and the backlog bound has room.
    fn admissible(&self, t: TaskId) -> bool {
        self.fits_alive_gpu(t) && self.max_backlog().is_none_or(|b| self.backlog < b)
    }

    /// Release task `t` to the scheduler: mark it poppable, notify the
    /// policy, and wake every worker.
    fn admit(&mut self, scheduler: &mut dyn Scheduler, t: TaskId) {
        self.released[t.index()] = true;
        self.backlog += 1;
        self.admitted += 1;
        if self.recording {
            self.emit(ObsEvent::TaskAdmitted {
                t: self.now,
                task: t.0,
                wait: self.now - self.ts.arrival(t),
            });
        }
        // A release can unblock pops on every worker.
        self.wake_all();
        // Admission has no owning worker; charge the callback to worker 0
        // so `sched_wall` still sums every scheduler invocation.
        self.call(0, |view| scheduler.on_task_arrival(t, view));
    }

    /// Re-try the deferred FIFO after a completion freed backlog or pinned
    /// memory; stops at the first still-inadmissible head to preserve
    /// arrival order. Under a shedding policy, overdue deferrals expire
    /// first so a stale head can never be admitted past its deadline.
    fn retry_deferred(&mut self, scheduler: &mut dyn Scheduler) {
        if self.shed_policy() != ShedPolicy::DeferOnly {
            self.expire_deferred();
        }
        while let Some(&raw) = self.deferred.front() {
            let t = TaskId(raw);
            if !self.admissible(t) {
                break;
            }
            self.deferred.pop_front();
            self.admit(scheduler, t);
        }
    }
}

/// Merge two sorted-unique id slices into `out` (cleared first). `out` is
/// a scratch buffer owned by [`State`], so the steady-state prefetch loop
/// reuses its capacity instead of allocating per call.
fn merge_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Grow-and-bump a per-class counter vector.
fn bump_class(v: &mut Vec<u64>, class: u32) {
    let c = class as usize;
    if v.len() <= c {
        v.resize(c + 1, 0);
    }
    v[c] += 1;
}
#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::TaskSetBuilder;

    /// Trivial FIFO scheduler for engine tests.
    struct Fifo {
        next: u32,
        total: u32,
    }

    impl Fifo {
        fn new(ts: &TaskSet) -> Self {
            Self {
                next: 0,
                total: ts.num_tasks() as u32,
            }
        }
    }

    impl Scheduler for Fifo {
        fn name(&self) -> String {
            "fifo-test".into()
        }
        fn pop_task(&mut self, _gpu: GpuId, _view: &RuntimeView<'_>) -> Option<TaskId> {
            if self.next < self.total {
                self.next += 1;
                Some(TaskId(self.next - 1))
            } else {
                None
            }
        }
    }

    fn tiny_spec(k: usize, mem: u64) -> PlatformSpec {
        PlatformSpec {
            num_gpus: k,
            memory_bytes: mem,
            bus_bandwidth: 1e9, // 1 GB/s
            transfer_latency: 0,
            gpu_gflops: 1.0, // 1 GFlop/s => flops == nanoseconds
            pipeline_depth: 2,
            gpu_gflops_override: None,
            nvlink_bandwidth: None,
            bus_groups: None,
        }
    }

    fn two_task_set() -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let d0 = b.add_data(1000);
        let d1 = b.add_data(1000);
        b.add_task(&[d0], 5000.0);
        b.add_task(&[d0, d1], 5000.0);
        b.build()
    }

    /// Two 100 ns tasks on distinct 1000 B data, one per GPU under
    /// [`Split`].
    fn split_task_set() -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let d0 = b.add_data(1000);
        let d1 = b.add_data(1000);
        b.add_task(&[d0], 100.0);
        b.add_task(&[d1], 100.0);
        b.build()
    }

    /// Gives task `g` to GPU `g`, once.
    #[derive(Default)]
    struct Split {
        popped: [bool; 2],
    }

    impl Scheduler for Split {
        fn name(&self) -> String {
            "split".into()
        }
        fn pop_task(&mut self, gpu: GpuId, _view: &RuntimeView<'_>) -> Option<TaskId> {
            if std::mem::replace(&mut self.popped[gpu.index()], true) {
                None
            } else {
                Some(TaskId(gpu.0))
            }
        }
    }

    #[test]
    fn executes_all_tasks_once() {
        let ts = two_task_set();
        let mut sched = Fifo::new(&ts);
        let report = run(&ts, &tiny_spec(1, 10_000), &mut sched).unwrap();
        assert_eq!(report.per_gpu[0].tasks, 2);
        assert_eq!(report.total_loads, 2);
        assert_eq!(report.total_load_bytes, 2000);
        assert_eq!(report.total_evictions, 0);
        assert!(report.makespan >= 10_000, "two 5µs tasks back to back");
    }

    #[test]
    fn transfers_overlap_computation() {
        // Task 0 computes for 5000 ns; D1 (1000 B @ 1 GB/s = 1000 ns) is
        // prefetched during that time, so task 1 starts right after task 0.
        let ts = two_task_set();
        let mut sched = Fifo::new(&ts);
        let report = run(&ts, &tiny_spec(1, 10_000), &mut sched).unwrap();
        // load D0 (1000 ns) + task0 (5000) + task1 (5000) = 11_000, with
        // D1's transfer hidden behind task 0.
        assert_eq!(report.makespan, 11_000);
    }

    #[test]
    fn eviction_happens_under_memory_pressure() {
        let mut b = TaskSetBuilder::new();
        let d: Vec<_> = (0..3).map(|_| b.add_data(1000)).collect();
        b.add_task(&[d[0]], 100.0);
        b.add_task(&[d[1]], 100.0);
        b.add_task(&[d[2]], 100.0);
        let ts = b.build();
        let mut sched = Fifo::new(&ts);
        // Memory fits one data item only.
        let report = run(&ts, &tiny_spec(1, 1000), &mut sched).unwrap();
        assert_eq!(report.total_loads, 3);
        assert_eq!(report.total_evictions, 2);
    }

    #[test]
    fn task_too_large_is_rejected() {
        let ts = two_task_set();
        let mut sched = Fifo::new(&ts);
        let err = run(&ts, &tiny_spec(1, 1500), &mut sched).unwrap_err();
        assert!(matches!(err, RunError::TaskTooLarge { .. }));
    }

    #[test]
    fn stuck_scheduler_is_detected() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn name(&self) -> String {
                "lazy".into()
            }
            fn pop_task(&mut self, _: GpuId, _: &RuntimeView<'_>) -> Option<TaskId> {
                None
            }
        }
        let ts = two_task_set();
        let err = run(&ts, &tiny_spec(1, 10_000), &mut Lazy).unwrap_err();
        assert_eq!(
            err,
            RunError::SchedulerStuck {
                completed: 0,
                total: 2
            }
        );
    }

    #[test]
    fn shared_bus_serializes_transfers_across_gpus() {
        // Two GPUs, one task each on distinct data: the second GPU's load
        // waits for the first on the shared bus.
        let (report, trace) = run_with_config(
            &split_task_set(),
            &tiny_spec(2, 10_000),
            &mut Split::default(),
            &RunConfig {
                trace: TraceMode::Full,
                ..Default::default()
            },
        )
        .unwrap();
        // GPU0's transfer: 0..1000; GPU1's: 1000..2000; tasks 100 ns each.
        assert_eq!(report.makespan, 2100);
        let issued: Vec<_> = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::LoadIssued { .. }))
            .collect();
        assert_eq!(issued.len(), 2);
        if let TraceEvent::LoadIssued { done_at, .. } = issued[1] {
            assert_eq!(*done_at, 2000, "second transfer queues behind the first");
        }
    }

    #[test]
    fn per_group_buses_carry_transfers_concurrently() {
        // Same workload as the shared-bus test, but each GPU sits on its
        // own PCI bus: the two loads proceed in parallel and both tasks
        // finish at 1100 instead of the serialized 2100.
        let spec = tiny_spec(2, 10_000).with_bus_groups(vec![0, 1]);
        let (report, trace) = run_with_config(
            &split_task_set(),
            &spec,
            &mut Split::default(),
            &RunConfig {
                trace: TraceMode::Full,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.makespan, 1100, "independent buses do not queue");
        for e in trace {
            if let TraceEvent::LoadIssued { done_at, .. } = e {
                assert_eq!(done_at, 1000, "both transfers start at t = 0");
            }
        }
        assert_eq!(report.bus_busy_ns, vec![1000, 1000]);
    }

    #[test]
    fn single_bus_grouping_matches_ungrouped_run_exactly() {
        // `bus_groups: Some(all zeros)` must be indistinguishable from
        // `None`: identical trace, report and per-bus accounting.
        let ts = two_task_set();
        let spec = tiny_spec(2, 10_000);
        let grouped = spec.clone().with_bus_groups(vec![0, 0]);
        let config = RunConfig {
            trace: TraceMode::Full,
            ..Default::default()
        };
        let a = run_with_config(&ts, &spec, &mut Fifo::new(&ts), &config).unwrap();
        let b = run_with_config(&ts, &grouped, &mut Fifo::new(&ts), &config).unwrap();
        assert_eq!(a.1, b.1, "one explicit bus must replay the None path");
        // Wall-clock measurements differ between runs; everything
        // simulated must match.
        let strip = |mut r: RunReport| {
            r.prepare_wall = 0;
            r.sched_wall = 0;
            for g in &mut r.per_gpu {
                g.sched_wall = 0;
            }
            r
        };
        assert_eq!(strip(a.0), strip(b.0));
    }

    #[test]
    #[should_panic(expected = "counters hold at most 65535 per task")]
    fn missing_counters_reject_a_task_with_65536_inputs() {
        struct Reader;
        impl Scheduler for Reader {
            fn name(&self) -> String {
                "reader".into()
            }
            fn pop_task(&mut self, _: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                view.missing();
                None
            }
        }
        let mut b = TaskSetBuilder::new();
        let inputs: Vec<_> = (0..1 << 16).map(|_| b.add_data(1)).collect();
        b.add_task(&inputs, 1.0);
        let ts = b.build();
        let _ = run(&ts, &tiny_spec(1, 1 << 16), &mut Reader);
    }

    #[test]
    fn pop_is_not_hammered_when_stalled() {
        // A scheduler that panics if popped more than N+1 times per event
        // would catch regressions; here we just count.
        struct Counting {
            pops: u32,
            inner: Fifo,
        }
        impl Scheduler for Counting {
            fn name(&self) -> String {
                "counting".into()
            }
            fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                self.pops += 1;
                self.inner.pop_task(gpu, view)
            }
        }
        let ts = two_task_set();
        let mut sched = Counting {
            pops: 0,
            inner: Fifo::new(&ts),
        };
        run(&ts, &tiny_spec(1, 10_000), &mut sched).unwrap();
        // 2 successful pops + one None per event at most.
        assert!(sched.pops < 20, "pops = {}", sched.pops);
    }

    #[test]
    fn sched_wall_is_reported_in_nanoseconds() {
        // Every pop spins for 20 µs of `Instant` time, so 50 tasks charge
        // worker 0 at least 1 ms of callbacks. The reported total must
        // still fit inside the wall time of the whole run: a count of
        // clock ticks (about two per nanosecond on common x86-64 parts)
        // would not.
        struct Slow(Fifo);
        impl Scheduler for Slow {
            fn name(&self) -> String {
                "slow-fifo".into()
            }
            fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                let started = Instant::now();
                while started.elapsed() < std::time::Duration::from_micros(20) {
                    std::hint::spin_loop();
                }
                self.0.pop_task(gpu, view)
            }
        }
        let mut b = TaskSetBuilder::new();
        let d = b.add_data(1000);
        for _ in 0..50 {
            b.add_task(&[d], 1000.0);
        }
        let ts = b.build();
        // Calibrate the clock before the measured interval starts.
        clock::ticks_to_ns(1);
        let started = Instant::now();
        let report = run(&ts, &tiny_spec(1, 10_000), &mut Slow(Fifo::new(&ts))).unwrap();
        let wall = started.elapsed().as_nanos() as Nanos;
        assert_eq!(report.per_gpu[0].tasks, 50);
        assert!(
            report.per_gpu[0].sched_wall >= 1_000_000,
            "50 pops of 20 µs charged {} ns",
            report.per_gpu[0].sched_wall
        );
        assert!(
            report.sched_wall <= wall,
            "sched_wall {} ns exceeds the run's wall time {wall} ns",
            report.sched_wall
        );
    }

    #[test]
    fn nvlink_serves_peer_replicas() {
        // Both GPUs need the same data item: with NVLink the second copy
        // comes from the peer, not the host bus.
        let mut b = TaskSetBuilder::new();
        let d0 = b.add_data(1000);
        b.add_task(&[d0], 100.0);
        b.add_task(&[d0], 100.0);
        let ts = b.build();

        struct OnePerGpu {
            popped: [bool; 2],
        }
        impl Scheduler for OnePerGpu {
            fn name(&self) -> String {
                "one-per-gpu".into()
            }
            fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                if self.popped[gpu.index()] {
                    return None;
                }
                // GPU1 waits until the replica is resident on GPU0, so its
                // copy can travel over the peer link when one exists.
                if gpu.0 == 1 && !view.is_resident(GpuId(0), memsched_model::DataId(0)) {
                    return None;
                }
                self.popped[gpu.index()] = true;
                Some(TaskId(gpu.0))
            }
        }

        let mut spec = tiny_spec(2, 10_000);
        // Without NVLink: two host loads.
        let r = run(&ts, &spec, &mut OnePerGpu { popped: [false; 2] }).unwrap();
        assert_eq!(r.total_loads, 2);
        assert_eq!(r.nvlink_mb(), 0.0);
        assert_eq!(r.pci_transfers_mb(), r.transfers_mb());

        // With NVLink: GPU0 loads from host, GPU1 peers once the replica
        // is resident (it may race host transfer; allow either but check
        // accounting consistency).
        spec.nvlink_bandwidth = Some(10e9);
        let r = run(&ts, &spec, &mut OnePerGpu { popped: [false; 2] }).unwrap();
        assert_eq!(r.total_loads, 2);
        let nv: u64 = r.per_gpu.iter().map(|g| g.nvlink_loads).sum();
        assert_eq!(nv, 1, "one copy should travel over NVLink");
        assert_eq!(r.pci_transfers_mb(), 0.001, "one 1000-byte host load");
    }

    #[test]
    fn report_gflops_accounts_total_flops() {
        let ts = two_task_set();
        let mut sched = Fifo::new(&ts);
        let report = run(&ts, &tiny_spec(1, 10_000), &mut sched).unwrap();
        assert_eq!(report.total_flops, 10_000.0);
        let expected = 10_000.0 / (report.makespan as f64 / 1e9) / 1e9;
        assert!((report.gflops() - expected).abs() < 1e-9);
        assert!(report.gflops_with_sched() <= report.gflops());
    }

    // ---- fault injection -------------------------------------------------

    use crate::fault::{FaultPlan, TransferFaultSpec};

    /// FIFO that requeues tasks lost to a fail-stop (minimal recovery).
    struct Recovering {
        queue: std::collections::VecDeque<TaskId>,
    }

    impl Recovering {
        fn new(ts: &TaskSet) -> Self {
            Self {
                queue: ts.tasks().collect(),
            }
        }
    }

    impl Scheduler for Recovering {
        fn name(&self) -> String {
            "recovering-fifo".into()
        }
        fn pop_task(&mut self, _gpu: GpuId, _view: &RuntimeView<'_>) -> Option<TaskId> {
            self.queue.pop_front()
        }
        fn on_gpu_failed(&mut self, _gpu: GpuId, lost: &[TaskId], _view: &RuntimeView<'_>) {
            for &t in lost.iter().rev() {
                self.queue.push_front(t);
            }
        }
    }

    fn four_task_set() -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let d: Vec<_> = (0..4).map(|_| b.add_data(1000)).collect();
        for &di in &d {
            b.add_task(&[di], 5000.0);
        }
        b.build()
    }

    fn faulty_config(faults: FaultPlan) -> RunConfig {
        RunConfig {
            trace: TraceMode::Full,
            faults,
            ..Default::default()
        }
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let ts = two_task_set();
        let spec = tiny_spec(1, 10_000);
        let base = run_with_config(
            &ts,
            &spec,
            &mut Fifo::new(&ts),
            &RunConfig {
                trace: TraceMode::Full,
                ..Default::default()
            },
        )
        .unwrap();
        let explicit = run_with_config(
            &ts,
            &spec,
            &mut Fifo::new(&ts),
            &faulty_config(FaultPlan::none()),
        )
        .unwrap();
        assert_eq!(
            base.1, explicit.1,
            "trace must be identical with faults off"
        );
        assert_eq!(base.0.makespan, explicit.0.makespan);
        assert_eq!(explicit.0.gpu_failures, 0);
        assert_eq!(explicit.0.transfer_retries, 0);
        assert_eq!(explicit.0.tasks_redispatched, 0);
    }

    #[test]
    fn gpu_failure_redispatches_lost_tasks() {
        let ts = four_task_set();
        let spec = tiny_spec(2, 10_000);
        // GPU 1 dies mid-first-task; its pipeline (2 tasks) reroutes.
        let plan = FaultPlan::none().with_gpu_failure(1, 2_500);
        let (report, trace) =
            run_with_config(&ts, &spec, &mut Recovering::new(&ts), &faulty_config(plan)).unwrap();
        let finished = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::TaskFinished { .. }))
            .count();
        assert_eq!(finished, 4, "every task completes exactly once");
        assert_eq!(
            report.per_gpu[1].tasks, 0,
            "GPU 1 died before finishing any"
        );
        assert_eq!(report.per_gpu[0].tasks, 4);
        assert_eq!(report.gpu_failures, 1);
        assert_eq!(report.tasks_redispatched, 2);
        assert!(
            trace
                .iter()
                .any(|e| matches!(e, TraceEvent::GpuFailed { gpu: 1, .. })),
            "failure must be traced"
        );
        // Survivor-only execution is slower than the fault-free run.
        let healthy = run(&ts, &spec, &mut Recovering::new(&ts)).unwrap();
        assert!(report.makespan > healthy.makespan);
        assert!(report.degradation_vs(&healthy) > 1.0);
    }

    #[test]
    fn all_gpus_failed_aborts_the_run() {
        let ts = two_task_set();
        let plan = FaultPlan::none().with_gpu_failure(0, 100);
        let err = run_with_config(
            &ts,
            &tiny_spec(1, 10_000),
            &mut Recovering::new(&ts),
            &faulty_config(plan),
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::AllGpusFailed {
                completed: 0,
                total: 2
            }
        );
    }

    #[test]
    fn straggler_stretches_compute_deterministically() {
        // Factor 0.5 from t = 0 doubles both 5000-ns tasks:
        // load D0 (1000) + 10_000 + 10_000 = 21_000.
        let ts = two_task_set();
        let plan = FaultPlan::none().with_straggler(0, 0, 0.5);
        let (report, trace) = run_with_config(
            &ts,
            &tiny_spec(1, 10_000),
            &mut Fifo::new(&ts),
            &faulty_config(plan),
        )
        .unwrap();
        assert_eq!(report.makespan, 21_000);
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::GpuSlowed { factor, .. } if *factor == 0.5)));
    }

    #[test]
    fn exhausted_transfer_retries_fail_the_run() {
        let ts = two_task_set();
        let plan = FaultPlan::none().with_transfer_faults(TransferFaultSpec {
            seed: 7,
            fault_ppm: 1_000_000, // every delivery attempt faults
            max_attempts: 3,
            backoff_base: 100,
        });
        let err = run_with_config(
            &ts,
            &tiny_spec(1, 10_000),
            &mut Fifo::new(&ts),
            &faulty_config(plan),
        )
        .unwrap_err();
        assert!(
            matches!(err, RunError::TransferFailed { attempts: 3, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn transfer_retries_recover_and_replay_identically() {
        let ts = two_task_set();
        let spec = tiny_spec(1, 10_000);
        // seed 2 faults the very first delivery check of this run shape.
        let plan = FaultPlan::none().with_transfer_faults(TransferFaultSpec {
            seed: 2,
            fault_ppm: 500_000,
            max_attempts: 32,
            backoff_base: 100,
        });
        let a = run_with_config(
            &ts,
            &spec,
            &mut Fifo::new(&ts),
            &faulty_config(plan.clone()),
        )
        .unwrap();
        let b = run_with_config(&ts, &spec, &mut Fifo::new(&ts), &faulty_config(plan)).unwrap();
        assert_eq!(a.1, b.1, "same seed must replay the same fault stream");
        assert_eq!(a.0.makespan, b.0.makespan);
        assert!(
            a.0.transfer_retries >= 1,
            "ppm 500k over 2 loads must retry"
        );
        let retries_in_trace =
            a.1.iter()
                .filter(|e| matches!(e, TraceEvent::TransferRetry { .. }))
                .count() as u64;
        assert_eq!(a.0.transfer_retries, retries_in_trace);
        // Faulted deliveries only delay the run, they never lose work.
        assert_eq!(a.0.per_gpu[0].tasks, 2);
    }

    #[test]
    fn capacity_shrink_forces_evictions() {
        let mut b = TaskSetBuilder::new();
        let d: Vec<_> = (0..3).map(|_| b.add_data(1000)).collect();
        for &di in &d {
            b.add_task(&[di], 5000.0);
        }
        let ts = b.build();
        // Starts with room for all three items; shrinks to one mid-run.
        let plan = FaultPlan::none().with_capacity_shrink(0, 4_000, 1000);
        let (report, trace) = run_with_config(
            &ts,
            &tiny_spec(1, 3000),
            &mut Fifo::new(&ts),
            &faulty_config(plan),
        )
        .unwrap();
        assert_eq!(report.per_gpu[0].tasks, 3, "all tasks still complete");
        assert!(report.total_evictions >= 1, "shrink must evict residents");
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::CapacityShrunk { capacity: 1000, .. })));
    }

    #[test]
    fn post_shrink_infeasible_task_is_a_structured_error() {
        // Task 1 needs 2000 B; the shrink (processed at t = 0, before any
        // transfer) caps GPU 0 at 1500 B, so the pop-time check fires.
        let ts = two_task_set();
        let plan = FaultPlan::none().with_capacity_shrink(0, 0, 1500);
        let err = run_with_config(
            &ts,
            &tiny_spec(1, 10_000),
            &mut Fifo::new(&ts),
            &faulty_config(plan),
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::TaskTooLarge {
                task: TaskId(1),
                footprint: 2000,
                capacity: 1500
            }
        );
    }

    #[test]
    fn fault_error_messages_are_readable() {
        let e = RunError::TransferFailed {
            gpu: 1,
            data: memsched_model::DataId(3),
            attempts: 4,
        };
        assert!(e.to_string().contains("retry budget"));
        let e = RunError::AllGpusFailed {
            completed: 5,
            total: 9,
        };
        assert!(e.to_string().contains("5/9"));
        let e = RunError::InvalidFaultPlan("fail: GPU 7 out of range".into());
        assert!(e.to_string().contains("GPU 7"));
    }

    #[test]
    fn observed_run_is_decision_identical_and_well_formed() {
        let ts = two_task_set();
        let spec = tiny_spec(1, 10_000);
        let config = RunConfig {
            trace: TraceMode::Full,
            ..Default::default()
        };
        let base = run_with_config(&ts, &spec, &mut Fifo::new(&ts), &config).unwrap();
        let probe = Probe::unbounded();
        let obs = run_observed(&ts, &spec, &mut Fifo::new(&ts), &config, &probe).unwrap();
        // Wall-clock measurements (sched_wall, prepare_wall) are real
        // time and differ between runs; everything simulated must match.
        let strip = |mut r: RunReport| {
            r.prepare_wall = 0;
            r.sched_wall = 0;
            for g in &mut r.per_gpu {
                g.sched_wall = 0;
            }
            r
        };
        assert_eq!(
            strip(base.0.clone()),
            strip(obs.0),
            "probe must not change the report"
        );
        assert_eq!(base.1, obs.1, "probe must not change the trace");

        let events = probe.events();
        let timeline = memsched_obs::check_well_formed(&events).unwrap();
        // One compute span per task, one transfer span per load.
        let computes = timeline
            .spans
            .iter()
            .filter(|s| matches!(s.kind, memsched_obs::SpanKind::Compute { .. }))
            .count();
        assert_eq!(computes, 2);
        let transfers = timeline
            .spans
            .iter()
            .filter(|s| matches!(s.kind, memsched_obs::SpanKind::Transfer { .. }))
            .count();
        assert_eq!(transfers as u64, base.0.total_loads);
    }

    #[test]
    fn lane_accounting_sums_to_makespan_and_matches_derived_breakdown() {
        let ts = two_task_set();
        let spec = tiny_spec(1, 10_000);
        let config = RunConfig {
            trace: TraceMode::Full,
            ..Default::default()
        };
        let (report, trace) = run_with_config(&ts, &spec, &mut Fifo::new(&ts), &config).unwrap();
        for g in &report.per_gpu {
            assert_eq!(g.busy + g.stall + g.idle, report.makespan);
        }
        // D0's initial load (1000 ns) is the only stall; D1 prefetches
        // under task 0's compute.
        assert_eq!(report.per_gpu[0].stall, 1000);
        // The validator folds the same split out of the trace, bit for bit.
        crate::validate(&ts, &spec, &config, &trace, &report).unwrap();
    }

    #[test]
    fn breakdown_sums_to_makespan_and_counts_queue_wait_as_stall() {
        // GPU 1's load queues behind GPU 0's on the shared bus and lands
        // at 2000, so GPU 1 stalls 2000 ns, its 1000 ns of queue wait
        // included. GPU 0 stalls 1000, computes 100 and idles to the end.
        let (report, _) = run_with_config(
            &split_task_set(),
            &tiny_spec(2, 10_000),
            &mut Split::default(),
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(report.makespan, 2100);
        let split: Vec<_> = report
            .per_gpu
            .iter()
            .map(|g| (g.busy, g.stall, g.idle))
            .collect();
        assert_eq!(split, vec![(100, 1000, 1000), (100, 2000, 0)]);
    }

    #[test]
    fn overlapping_transfer_under_compute_is_not_stall() {
        // Three 5000 ns tasks on distinct 1000 B data: D1 queues behind
        // D0 and lands under task 0; D2 is issued when task 0 ends and
        // lands under task 1. Only D0's load stalls the GPU.
        let mut b = TaskSetBuilder::new();
        for _ in 0..3 {
            let d = b.add_data(1000);
            b.add_task(&[d], 5000.0);
        }
        let ts = b.build();
        let report = run(&ts, &tiny_spec(1, 10_000), &mut Fifo::new(&ts)).unwrap();
        let g = &report.per_gpu[0];
        assert_eq!(
            (report.makespan, g.busy, g.stall, g.idle),
            (16_000, 15_000, 1000, 0)
        );
    }

    #[test]
    fn end_to_end_overlap_is_high_for_good_schedulers() {
        // A chain of tasks on distinct data: with pipeline depth 2, every
        // transfer after the first should hide behind computation.
        let mut b = TaskSetBuilder::new();
        for _ in 0..10 {
            let d = b.add_data(1000);
            b.add_task(&[d], 100_000.0);
        }
        let ts = b.build();
        let probe = Probe::unbounded();
        let spec = tiny_spec(1, 10_000);
        let config = RunConfig::default();
        let (report, _) = run_observed(&ts, &spec, &mut Fifo::new(&ts), &config, &probe).unwrap();
        assert_eq!(report.per_gpu[0].tasks, 10);
        let o = memsched_obs::overlap(&probe.events()).unwrap();
        // 9 of 10 transfers hide behind compute (first one cannot).
        assert!(o.ratio() > 0.85, "overlap = {}", o.ratio());
    }

    #[test]
    fn faulted_observed_run_closes_interrupted_spans() {
        let ts = four_task_set();
        let spec = tiny_spec(2, 10_000);
        // GPU 1's queued bus loads land at 3000; it computes 3000..8000,
        // so a failure at 5000 interrupts it mid-task.
        let plan = FaultPlan::none().with_gpu_failure(1, 5_000);
        let probe = Probe::unbounded();
        let (report, _) = run_observed(
            &ts,
            &spec,
            &mut Recovering::new(&ts),
            &faulty_config(plan),
            &probe,
        )
        .unwrap();
        let events = probe.events();
        let timeline = memsched_obs::check_well_formed(&events).unwrap();
        let interrupted = timeline
            .spans
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    memsched_obs::SpanKind::Compute {
                        interrupted: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(interrupted, 1, "GPU 1's running task ends interrupted");
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ObsEvent::GpuFailed { .. }))
                .count() as u64,
            report.gpu_failures
        );
        for g in &report.per_gpu {
            assert_eq!(g.busy + g.stall + g.idle, report.makespan);
        }
    }

    /// FIFO scheduler that only pops tasks the admission loop has
    /// released — the contract online schedulers must follow.
    struct StreamFifo {
        q: std::collections::VecDeque<TaskId>,
    }

    impl Scheduler for StreamFifo {
        fn name(&self) -> String {
            "stream-fifo-test".into()
        }
        fn prepare_stream(&mut self, _ts: &TaskSet, _spec: &PlatformSpec) {
            self.q.clear();
        }
        fn on_task_arrival(&mut self, task: TaskId, _view: &RuntimeView<'_>) {
            self.q.push_back(task);
        }
        fn pop_task(&mut self, _gpu: GpuId, _view: &RuntimeView<'_>) -> Option<TaskId> {
            self.q.pop_front()
        }
    }

    fn traced_online_config(max_backlog: Option<usize>) -> RunConfig {
        RunConfig {
            trace: TraceMode::Full,
            admission: Some(AdmissionConfig {
                max_backlog,
                ..AdmissionConfig::default()
            }),
            ..RunConfig::default()
        }
    }

    #[test]
    fn admission_none_ignores_arrival_stamps() {
        // With `admission: None` the engine takes the batch path even if
        // the task set carries arrival times: identical trace, no
        // admission events, no online stats.
        let ts = two_task_set();
        let stamped = ts.clone().with_arrivals(vec![0, 7_000]);
        let config = RunConfig {
            trace: TraceMode::Full,
            ..RunConfig::default()
        };
        let (r1, t1) =
            run_with_config(&ts, &tiny_spec(1, 10_000), &mut Fifo::new(&ts), &config).unwrap();
        let (r2, t2) = run_with_config(
            &stamped,
            &tiny_spec(1, 10_000),
            &mut Fifo::new(&stamped),
            &config,
        )
        .unwrap();
        assert_eq!(t1, t2, "batch runs must ignore arrival stamps");
        assert_eq!(r1.makespan, r2.makespan);
        assert!(r2.online.is_none());
    }

    #[test]
    fn backlog_cap_defers_and_retries_in_fcfs_order() {
        // Three independent tasks all arrive at t = 0 under a backlog
        // bound of 1: task 0 is admitted up front, 1 and 2 defer and are
        // re-admitted one completion at a time, in arrival order.
        let mut b = TaskSetBuilder::new();
        let d: Vec<_> = (0..3).map(|_| b.add_data(1000)).collect();
        for &x in &d {
            b.add_task(&[x], 5000.0);
        }
        let ts = b.build().with_arrivals(vec![0; 3]);
        let mut sched = StreamFifo {
            q: Default::default(),
        };
        let (report, trace) = run_with_config(
            &ts,
            &tiny_spec(1, 3000),
            &mut sched,
            &traced_online_config(Some(1)),
        )
        .unwrap();
        let stats = report.online.expect("online stats");
        assert_eq!(stats.tasks_admitted, 3);
        assert_eq!(stats.tasks_deferred, 2, "tasks 1 and 2 defer once each");
        let admitted: Vec<usize> = trace
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::TaskAdmitted { task, .. } => Some(task),
                _ => None,
            })
            .collect();
        assert_eq!(admitted, vec![0, 1, 2], "FCFS admission order");
        // Each later admission happens at a completion, not before.
        let mut done = 0;
        for ev in &trace {
            match *ev {
                TraceEvent::TaskFinished { .. } => done += 1,
                TraceEvent::TaskAdmitted { task, .. } => {
                    assert_eq!(
                        task, done,
                        "admission #{task} must wait for {task} completions"
                    )
                }
                _ => {}
            }
        }
        assert_eq!(report.per_gpu[0].tasks, 3);
    }

    #[test]
    fn staggered_arrivals_gate_task_starts() {
        let ts = two_task_set().with_arrivals(vec![0, 9_000]);
        let mut sched = StreamFifo {
            q: Default::default(),
        };
        let (report, trace) = run_with_config(
            &ts,
            &tiny_spec(1, 10_000),
            &mut sched,
            &traced_online_config(None),
        )
        .unwrap();
        for ev in &trace {
            match *ev {
                TraceEvent::TaskAdmitted { at, task } => {
                    assert_eq!(
                        at,
                        ts.arrival(TaskId(task as u32)),
                        "uncontended admit is immediate"
                    )
                }
                TraceEvent::TaskStarted { at, task, .. } => {
                    assert!(at >= ts.arrival(TaskId(task as u32)))
                }
                _ => {}
            }
        }
        let stats = report.online.expect("online stats");
        assert_eq!(stats.tasks_admitted, 2);
        assert_eq!(stats.tasks_deferred, 0);
        assert!(stats.throughput_tps > 0.0);
    }

    fn shed_config(policy: ShedPolicy, max_backlog: Option<usize>) -> RunConfig {
        RunConfig {
            trace: TraceMode::Full,
            admission: Some(AdmissionConfig {
                max_backlog,
                policy,
            }),
            ..RunConfig::default()
        }
    }

    #[test]
    fn shed_policy_parses_and_labels() {
        for (s, want) in [
            ("defer", ShedPolicy::DeferOnly),
            ("defer-only", ShedPolicy::DeferOnly),
            ("deadline", ShedPolicy::DeadlineShed),
            ("deadline-shed", ShedPolicy::DeadlineShed),
            ("priority", ShedPolicy::PriorityShed),
            ("priority-shed", ShedPolicy::PriorityShed),
        ] {
            assert_eq!(ShedPolicy::parse(s).unwrap(), want, "{s}");
        }
        assert!(ShedPolicy::parse("drop-everything").is_err());
        assert_eq!(ShedPolicy::default(), ShedPolicy::DeferOnly);
        assert_eq!(ShedPolicy::DeadlineShed.as_str(), "deadline");
    }

    /// Predictive shed: once the delay estimator has samples, an arrival
    /// whose deadline is already blown by the estimated wait is rejected
    /// at arrival time and never reaches a scheduler.
    #[test]
    fn deadline_shed_rejects_hopeless_arrival() {
        let mut b = TaskSetBuilder::new();
        let d: Vec<_> = (0..3).map(|_| b.add_data(1000)).collect();
        for &x in &d {
            b.add_task(&[x], 5000.0);
        }
        // Task 0 starts at t=1000 (its load), so by task 1's arrival at
        // t=2000 the estimator holds mean_q = 1000 > deadline 500.
        let ts = b
            .build()
            .with_arrivals(vec![0, 2000, 2500])
            .with_deadlines(vec![0, 500, 0]);
        let mut sched = StreamFifo {
            q: Default::default(),
        };
        let (report, trace) = run_with_config(
            &ts,
            &tiny_spec(1, 10_000),
            &mut sched,
            &shed_config(ShedPolicy::DeadlineShed, Some(1)),
        )
        .unwrap();
        let stats = report.online.expect("online stats");
        assert_eq!(stats.tasks_shed, 1);
        assert_eq!(stats.deadline_expired, 0);
        assert_eq!(stats.tasks_admitted, 2);
        assert_eq!(report.per_gpu[0].tasks, 2, "shed task never executes");
        assert_eq!(
            stats.shed_per_class,
            vec![1],
            "class-less drop lands in class 0"
        );
        assert_eq!(stats.deadline_violations, 0);
        assert!(stats.goodput_tps > 0.0);
        assert!(
            trace
                .iter()
                .any(|ev| matches!(*ev, TraceEvent::TaskShed { at: 2000, task: 1 })),
            "shed instant recorded at the arrival"
        );
        assert!(
            !trace
                .iter()
                .any(|ev| matches!(*ev, TraceEvent::TaskStarted { task: 1, .. })),
            "no shed task ever starts"
        );
    }

    /// Lazy expiry: deferred tasks whose deadline lapses while queued are
    /// dropped at the next admission activity, not admitted stale.
    #[test]
    fn deadline_shed_expires_stale_deferrals() {
        let mut b = TaskSetBuilder::new();
        let d: Vec<_> = (0..3).map(|_| b.add_data(1000)).collect();
        for &x in &d {
            b.add_task(&[x], 5000.0);
        }
        // Tasks 1 and 2 defer behind the backlog cap with 1µs deadlines;
        // task 0 completes at t=6000, far past both budgets.
        let ts = b
            .build()
            .with_arrivals(vec![0, 100, 200])
            .with_deadlines(vec![0, 1000, 1000]);
        let mut sched = StreamFifo {
            q: Default::default(),
        };
        let (report, trace) = run_with_config(
            &ts,
            &tiny_spec(1, 10_000),
            &mut sched,
            &shed_config(ShedPolicy::DeadlineShed, Some(1)),
        )
        .unwrap();
        let stats = report.online.expect("online stats");
        assert_eq!(stats.deadline_expired, 2);
        assert_eq!(stats.tasks_shed, 0);
        assert_eq!(report.per_gpu[0].tasks, 1);
        let expired: Vec<usize> = trace
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::DeadlineExpired { task, .. } => Some(task),
                _ => None,
            })
            .collect();
        assert_eq!(expired, vec![1, 2], "FIFO-order expiry");
        // Exactly-once: every arrival is admitted xor dropped.
        assert_eq!(
            stats.tasks_admitted + stats.tasks_shed + stats.deadline_expired,
            3
        );
    }

    /// PriorityShed bounds the deferred queue at `max_backlog` and evicts
    /// the lowest class first (ties drop the oldest).
    #[test]
    fn priority_shed_evicts_lowest_class_first() {
        let mut b = TaskSetBuilder::new();
        let d: Vec<_> = (0..4).map(|_| b.add_data(1000)).collect();
        for &x in &d {
            b.add_task(&[x], 5000.0);
        }
        let ts = b
            .build()
            .with_arrivals(vec![0, 10, 20, 30])
            .with_classes(vec![1, 0, 1, 1]);
        let mut sched = StreamFifo {
            q: Default::default(),
        };
        let (report, trace) = run_with_config(
            &ts,
            &tiny_spec(1, 10_000),
            &mut sched,
            &shed_config(ShedPolicy::PriorityShed, Some(1)),
        )
        .unwrap();
        let stats = report.online.expect("online stats");
        // Task 0 admits; task 1 (class 0) defers; task 2's overflow sheds
        // class-0 task 1; task 3's overflow sheds task 2 (tie → oldest).
        let shed: Vec<usize> = trace
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::TaskShed { task, .. } => Some(task),
                _ => None,
            })
            .collect();
        assert_eq!(shed, vec![1, 2]);
        assert_eq!(stats.tasks_shed, 2);
        assert_eq!(stats.shed_per_class, vec![1, 1]);
        assert_eq!(report.per_gpu[0].tasks, 2);
        assert_eq!(stats.completed_per_class, vec![0, 2]);
        // The deferred queue never exceeds the bound.
        let mut waiting = 0i64;
        for ev in &trace {
            match *ev {
                TraceEvent::TaskDeferred { .. } => waiting += 1,
                TraceEvent::TaskAdmitted { at, .. } if at > 0 => waiting -= 1,
                TraceEvent::TaskShed { at, .. } if at > 0 => {
                    // Only queue evictions decrement; arrival-time sheds
                    // never entered the queue. Here every shed is a queue
                    // eviction (both victims were deferred first).
                    waiting -= 1;
                }
                _ => {}
            }
            assert!(waiting <= 1, "deferred backlog exceeded the bound");
        }
    }

    /// A shedding policy with nothing to shed — no deadlines, no queue
    /// overflow — replays the DeferOnly event stream byte-for-byte, and
    /// DeferOnly ignores deadline stamps entirely.
    #[test]
    fn shed_policies_are_conservative_extensions() {
        let mut b = TaskSetBuilder::new();
        let d: Vec<_> = (0..3).map(|_| b.add_data(1000)).collect();
        for &x in &d {
            b.add_task(&[x], 5000.0);
        }
        let plain = b.build().with_arrivals(vec![0, 100, 200]);
        let stamped = plain
            .clone()
            .with_deadlines(vec![u64::MAX, u64::MAX, u64::MAX]);
        let run = |ts: &TaskSet, config: &RunConfig| {
            let mut sched = StreamFifo {
                q: Default::default(),
            };
            run_with_config(ts, &tiny_spec(1, 10_000), &mut sched, config)
                .unwrap()
                .1
        };
        let defer_only = run(&plain, &traced_online_config(Some(2)));
        assert_eq!(
            run(&plain, &shed_config(ShedPolicy::DeadlineShed, Some(2))),
            defer_only,
            "DeadlineShed without deadlines must match DeferOnly"
        );
        assert_eq!(
            run(&stamped, &shed_config(ShedPolicy::DeadlineShed, Some(2))),
            defer_only,
            "unreachable deadlines must not perturb the stream"
        );
        assert_eq!(
            run(&stamped, &traced_online_config(Some(2))),
            defer_only,
            "DeferOnly ignores deadline stamps"
        );
    }
}
