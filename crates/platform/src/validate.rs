//! The run validator: one fold over a [`TraceMode::Full`] trace that
//! checks the paper's model, the fault and admission ledgers, and the
//! [`RunReport`] (see [`validate`]).

use crate::engine::{RunConfig, ShedPolicy};
use crate::memory::Residency;
use crate::report::{GpuRunStats, OnlineStats, RunReport, TraceEvent};
use crate::spec::{Nanos, PlatformSpec};
use crate::trace::TraceMode;
use memsched_model::{replay, DataId, EvictionPolicy, Schedule, TaskId, TaskSet};
use std::fmt::Debug;

/// A rule the run broke: where in the trace, and what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending trace event, or `None` when an end-of-run
    /// check failed.
    pub event: Option<usize>,
    /// What broke.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.event {
            Some(i) => write!(f, "event {i}: {}", self.message),
            None => write!(f, "end of run: {}", self.message),
        }
    }
}

impl std::error::Error for Violation {}

/// Fail the enclosing check with a formatted message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Check one successful run of `ts` on `spec` under `config` against its
/// [`TraceMode::Full`] `trace` and its `report`, in one fold over the
/// trace. Returns the first rule broken:
///
/// * **Memory** — a GPU's loading plus resident bytes never exceed its
///   current capacity; a shrink never raises capacity or cuts below
///   occupancy; loads only for absent data, load completions only for
///   loading data, evictions only for resident data; no eviction of an
///   input of the task running on that GPU (`V(k,i) ∩ D(σ(k,i)) = ∅`);
///   every input resident when its task starts.
/// * **Bus** (NVLink off) — each first transfer attempt is granted no
///   earlier than its issue and than the end of the previous first
///   attempt on the same PCI bus.
/// * **Execution and faults** — one task at a time per GPU; a failed GPU
///   starts and loads nothing; a task restarts only after the GPU running
///   it failed; every task not dropped finishes exactly once, on the GPU
///   it started on; a fault event appears only if the plan has it.
/// * **Admission** — no admission events in a batch run; each task
///   arrives once, at its arrival time, in time order; admit and defer
///   follow arrival, a task defers at most once; each arrival is admitted
///   or dropped exactly once; nothing starts before its admission or
///   after a drop; `DeferOnly` never drops; expiry only for a deferred
///   task past its deadline; `PriorityShed` keeps the deferred queue
///   within `max_backlog`.
/// * **Report equals fold**, bit for bit: per-GPU tasks, loads, bytes,
///   evictions and the busy/stall/idle split, the totals, faults, the
///   makespan (the last event time) and all of [`OnlineStats`];
///   `tasks_redispatched` covers at least the interrupted starts.
/// * **Cache-byte ledger** — each pop splits its task's footprint into
///   hit and miss bytes once, so the summed `cache_hit_bytes +
///   cache_miss_bytes` equals the summed footprints of the executed
///   tasks, or covers them when fail-stops redispatched tasks (a lost
///   pop is split again where it reruns). The trace cannot determine the
///   NVLink split, the hit/miss division, `bus_busy_ns` or the
///   wall-clock fields, so those go unchecked.
/// * **Model bounds** — bytes loaded cover the compulsory bytes of the
///   tasks that ran (`bounds::min_total_load_bytes` when nothing was
///   dropped); with uniform data sizes, each GPU loads at least as often
///   as Belady's rule on its executed start order (`model::replay`).
///
/// The engine never calls it: tests, the scenario fuzzer and the chaos
/// harness do.
pub fn validate(
    ts: &TaskSet,
    spec: &PlatformSpec,
    config: &RunConfig,
    trace: &[TraceEvent],
    report: &RunReport,
) -> Result<(), Violation> {
    if config.trace != TraceMode::Full {
        return Err(Violation {
            event: None,
            message: format!("needs a TraceMode::Full trace, not {:?}", config.trace),
        });
    }
    let mut fold = Fold::new(ts, spec, config);
    for (i, ev) in trace.iter().enumerate() {
        fold.step(ev).map_err(|message| Violation {
            event: Some(i),
            message,
        })?;
    }
    fold.finish(report).map_err(|message| Violation {
        event: None,
        message,
    })
}

/// Where a task stands in its execution.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Never started, or interrupted by its GPU's failure.
    Idle,
    Running,
    Done,
}

/// One task's admission ledger.
#[derive(Clone, Copy, Default)]
struct Ticket {
    arrived: bool,
    admitted: bool,
    /// Deferred and still waiting for admission.
    queued: bool,
    dropped: bool,
}

/// One GPU as the fold sees it.
#[derive(Clone, Default)]
struct Gpu {
    cap: u64,
    used: u64,
    running: Option<usize>,
    started_at: Nanos,
    dead: bool,
    inflight: u32,
    /// Time up to which `stats.stall` is accounted.
    lane_at: Nanos,
    /// Tasks, loads, bytes, evictions, busy and stall as folded.
    stats: GpuRunStats,
    /// Every task started here, in start order.
    order: Vec<TaskId>,
}

impl Gpu {
    /// Account the stall up to `at`: alive, not computing, and waiting on
    /// at least one transfer. Called before every change of those three.
    fn advance(&mut self, at: Nanos) {
        if self.running.is_none() && !self.dead && self.inflight > 0 {
            self.stats.stall += at - self.lane_at;
        }
        self.lane_at = at;
    }
}

struct Fold<'a> {
    ts: &'a TaskSet,
    spec: &'a PlatformSpec,
    config: &'a RunConfig,
    online: bool,
    policy: ShedPolicy,
    now: Nanos,
    /// Residency per (GPU, data), row-major by GPU.
    res: Vec<Residency>,
    gpus: Vec<Gpu>,
    /// Per PCI bus: completion time of the last first attempt granted.
    bus_end: Vec<Nanos>,
    stage: Vec<Stage>,
    tickets: Vec<Ticket>,
    queued: usize,
    flops: f64,
    /// Summed footprints of the finished tasks.
    footprints: u64,
    retries: u64,
    failures: u64,
    interrupted: u64,
    /// Admission counters, per-class vectors and deadline violations.
    counts: OnlineStats,
    latencies: Vec<Nanos>,
    queueing: Vec<Nanos>,
    good: u64,
}

impl<'a> Fold<'a> {
    fn new(ts: &'a TaskSet, spec: &'a PlatformSpec, config: &'a RunConfig) -> Self {
        let gpu = Gpu {
            cap: spec.memory_bytes,
            ..Gpu::default()
        };
        Fold {
            ts,
            spec,
            config,
            online: config.admission.is_some(),
            policy: config
                .admission
                .as_ref()
                .map_or(ShedPolicy::DeferOnly, |a| a.policy),
            now: 0,
            res: vec![Residency::Absent; spec.num_gpus * ts.num_data()],
            gpus: vec![gpu; spec.num_gpus],
            bus_end: vec![0; spec.num_buses()],
            stage: vec![Stage::Idle; ts.num_tasks()],
            tickets: vec![Ticket::default(); ts.num_tasks()],
            queued: 0,
            flops: 0.0,
            footprints: 0,
            retries: 0,
            failures: 0,
            interrupted: 0,
            counts: OnlineStats::default(),
            latencies: Vec::new(),
            queueing: Vec::new(),
            good: 0,
        }
    }

    fn res(&mut self, g: usize, d: usize) -> &mut Residency {
        &mut self.res[g * self.ts.num_data() + d]
    }

    fn step(&mut self, ev: &TraceEvent) -> Result<(), String> {
        let at = time_of(ev);
        ensure!(
            at >= self.now,
            "time runs backwards from {} to {at}",
            self.now
        );
        self.now = at;
        let (ts, config) = (self.ts, self.config);
        let faults = &config.faults;
        match *ev {
            TraceEvent::LoadIssued {
                gpu: g,
                data,
                done_at,
                ..
            } => {
                let size = ts.data_size(DataId(data as u32));
                ensure!(
                    !self.gpus[g].dead,
                    "GPU {g} loads data {data} after it failed"
                );
                let state = self.res(g, data);
                ensure!(
                    *state == Residency::Absent,
                    "GPU {g} loads data {data}, {state:?}"
                );
                *state = Residency::Loading;
                let gpu = &mut self.gpus[g];
                ensure!(
                    gpu.used + size <= gpu.cap,
                    "loading data {data} takes GPU {g} to {} bytes, past its capacity {}",
                    gpu.used + size,
                    gpu.cap
                );
                gpu.used += size;
                gpu.advance(at);
                gpu.inflight += 1;
                if self.spec.nvlink_bandwidth.is_none() {
                    let (bus, tt) = (self.spec.bus_of(g), self.spec.transfer_time(size));
                    ensure!(
                        done_at >= at + tt,
                        "GPU {g} gets data {data} in under transfer time"
                    );
                    ensure!(
                        done_at - tt >= self.bus_end[bus],
                        "bus {bus} grants data {data} to GPU {g} at {}, before it is free at {}",
                        done_at - tt,
                        self.bus_end[bus]
                    );
                    self.bus_end[bus] = done_at;
                }
            }
            TraceEvent::LoadDone { gpu: g, data, .. } => {
                let state = self.res(g, data);
                ensure!(
                    *state == Residency::Loading,
                    "GPU {g} receives data {data}, {state:?}"
                );
                *state = Residency::Resident;
                let gpu = &mut self.gpus[g];
                gpu.advance(at);
                gpu.inflight -= 1;
                gpu.stats.loads += 1;
                gpu.stats.load_bytes += ts.data_size(DataId(data as u32));
            }
            TraceEvent::Evicted { gpu: g, data, .. } => {
                let state = self.res(g, data);
                ensure!(
                    *state == Residency::Resident,
                    "GPU {g} evicts data {data}, {state:?}"
                );
                *state = Residency::Absent;
                let gpu = &mut self.gpus[g];
                if let Some(t) = gpu.running {
                    let pinned = ts.inputs(TaskId(t as u32)).contains(&(data as u32));
                    ensure!(
                        !pinned,
                        "GPU {g} evicts data {data}, an input of running task {t}"
                    );
                }
                gpu.used -= ts.data_size(DataId(data as u32));
                gpu.stats.evictions += 1;
            }
            TraceEvent::TaskStarted {
                gpu: g, task: t, ..
            } => {
                let id = TaskId(t as u32);
                ensure!(
                    !self.gpus[g].dead,
                    "task {t} starts on GPU {g} after it failed"
                );
                if let Some(r) = self.gpus[g].running {
                    return Err(format!(
                        "task {t} starts on GPU {g}, which still runs task {r}"
                    ));
                }
                let again = self.stage[t] != Stage::Idle;
                ensure!(
                    !again,
                    "task {t} starts again, but no failure interrupted it"
                );
                if self.online {
                    ensure!(
                        !self.tickets[t].dropped,
                        "task {t} starts after it was dropped"
                    );
                    ensure!(
                        self.tickets[t].admitted,
                        "task {t} starts before its admission"
                    );
                    self.queueing.push(at - ts.arrival(id));
                }
                for &d in ts.inputs(id) {
                    let state = *self.res(g, d as usize);
                    let ok = state == Residency::Resident;
                    ensure!(ok, "task {t} starts on GPU {g} with input {d} {state:?}");
                }
                let gpu = &mut self.gpus[g];
                gpu.advance(at);
                gpu.running = Some(t);
                gpu.started_at = at;
                gpu.order.push(id);
                self.stage[t] = Stage::Running;
            }
            TraceEvent::TaskFinished {
                gpu: g, task: t, ..
            } => {
                let id = TaskId(t as u32);
                let gpu = &mut self.gpus[g];
                ensure!(
                    gpu.running == Some(t),
                    "task {t} finishes on GPU {g}, not running it"
                );
                gpu.advance(at);
                gpu.running = None;
                gpu.stats.busy += at - gpu.started_at;
                gpu.stats.tasks += 1;
                self.stage[t] = Stage::Done;
                self.flops += ts.flops(id);
                self.footprints += ts.task_footprint(id);
                if self.online {
                    let latency = at - ts.arrival(id);
                    self.latencies.push(latency);
                    bump_class(&mut self.counts.completed_per_class, ts.class_of(id));
                    let dl = ts.deadline(id);
                    if dl > 0 && latency > dl {
                        self.counts.deadline_violations += 1;
                    } else {
                        self.good += 1;
                    }
                }
            }
            TraceEvent::GpuFailed { gpu: g, .. } => {
                let planned = faults.gpu_failures.iter().any(|f| f.gpu == g && f.at == at);
                ensure!(
                    planned,
                    "GPU {g} fails at {at}, which the fault plan does not plan"
                );
                let gpu = &mut self.gpus[g];
                ensure!(!gpu.dead, "GPU {g} fails twice");
                gpu.advance(at);
                gpu.dead = true;
                self.failures += 1;
                if let Some(t) = gpu.running.take() {
                    gpu.stats.busy += at - gpu.started_at;
                    self.stage[t] = Stage::Idle;
                    self.interrupted += 1;
                }
            }
            TraceEvent::TransferRetry {
                gpu: g,
                data,
                attempt,
                ..
            } => {
                let planned = faults
                    .transfer_faults
                    .is_some_and(|tf| (2..=tf.max_attempts).contains(&attempt));
                ensure!(
                    planned,
                    "retry {attempt} of data {data} to GPU {g} is not planned"
                );
                let state = *self.res(g, data);
                ensure!(
                    state == Residency::Loading,
                    "GPU {g} retries data {data}, {state:?}"
                );
                self.retries += 1;
            }
            TraceEvent::CapacityShrunk {
                gpu: g, capacity, ..
            } => {
                let planned = faults
                    .capacity_shrinks
                    .iter()
                    .any(|s| s.gpu == g && s.at <= at && s.new_capacity <= capacity);
                ensure!(
                    planned,
                    "GPU {g} capacity {capacity} at {at} is not in the fault plan"
                );
                let gpu = &mut self.gpus[g];
                let cap = gpu.cap;
                ensure!(
                    capacity <= cap,
                    "GPU {g} capacity rises from {cap} to {capacity}"
                );
                ensure!(
                    capacity >= gpu.used,
                    "GPU {g} shrinks to {capacity} bytes, below its occupancy {}",
                    gpu.used
                );
                gpu.cap = capacity;
            }
            TraceEvent::GpuSlowed { gpu: g, factor, .. } => {
                let planned = faults
                    .stragglers
                    .iter()
                    .any(|s| s.gpu == g && s.at == at && s.factor == factor);
                ensure!(
                    planned,
                    "GPU {g} slows to {factor} at {at}, not in the fault plan"
                );
            }
            // A batch run has no arrival, and every other admission event
            // needs one.
            TraceEvent::TaskArrived { task: t, .. } => {
                ensure!(self.online, "task {t} arrives in a batch run");
                let due = ts.arrival(TaskId(t as u32));
                ensure!(!self.tickets[t].arrived, "task {t} arrives twice");
                ensure!(
                    at == due,
                    "task {t} arrives at {at}, not at its arrival time {due}"
                );
                self.tickets[t].arrived = true;
            }
            TraceEvent::TaskAdmitted { task: t, .. } => {
                let tk = &mut self.tickets[t];
                ensure!(tk.arrived, "task {t} is admitted before it arrives");
                ensure!(!tk.admitted, "task {t} is admitted twice");
                ensure!(!tk.dropped, "task {t} is admitted after it was dropped");
                self.queued -= usize::from(tk.queued);
                tk.queued = false;
                tk.admitted = true;
                self.counts.tasks_admitted += 1;
            }
            TraceEvent::TaskDeferred { task: t, .. } => {
                let tk = &mut self.tickets[t];
                let waiting = tk.arrived && !tk.admitted && !tk.dropped;
                ensure!(
                    waiting,
                    "task {t} is deferred while not waiting for admission"
                );
                ensure!(!tk.queued, "task {t} is deferred twice");
                tk.queued = true;
                self.queued += 1;
                self.counts.tasks_deferred += 1;
                let bound = config.admission.as_ref().and_then(|a| a.max_backlog);
                if let (ShedPolicy::PriorityShed, Some(b)) = (self.policy, bound) {
                    let n = self.queued;
                    ensure!(
                        n <= b,
                        "the deferred queue holds {n} tasks, past max_backlog {b}"
                    );
                }
            }
            TraceEvent::TaskShed { task: t, .. } | TraceEvent::DeadlineExpired { task: t, .. } => {
                let id = TaskId(t as u32);
                let tk = &mut self.tickets[t];
                ensure!(
                    self.policy != ShedPolicy::DeferOnly,
                    "DeferOnly drops task {t}"
                );
                let waiting = tk.arrived && !tk.admitted && !tk.dropped;
                ensure!(
                    waiting,
                    "task {t} is dropped while not waiting for admission"
                );
                if matches!(ev, TraceEvent::DeadlineExpired { .. }) {
                    let dl = ts.deadline(id);
                    let late = tk.queued && dl > 0 && at > ts.arrival(id).saturating_add(dl);
                    ensure!(
                        late,
                        "task {t} expires at {at}, not deferred past its deadline"
                    );
                    self.counts.deadline_expired += 1;
                } else {
                    self.counts.tasks_shed += 1;
                }
                self.queued -= usize::from(tk.queued);
                tk.queued = false;
                tk.dropped = true;
                bump_class(&mut self.counts.shed_per_class, ts.class_of(id));
            }
        }
        Ok(())
    }

    fn finish(mut self, report: &RunReport) -> Result<(), String> {
        let ts = self.ts;
        for (t, tk) in self.tickets.iter().enumerate() {
            if self.online {
                ensure!(tk.arrived, "task {t} never arrives");
                ensure!(
                    tk.admitted || tk.dropped,
                    "task {t} is neither admitted nor dropped"
                );
            }
            ensure!(
                tk.dropped || self.stage[t] == Stage::Done,
                "task {t} never finishes"
            );
        }

        let makespan = self.now;
        same("makespan", makespan, report.makespan)?;
        same("number of GPUs", self.gpus.len(), report.per_gpu.len())?;
        for (g, (gpu, rep)) in self.gpus.iter_mut().zip(&report.per_gpu).enumerate() {
            gpu.advance(makespan);
            let s = &gpu.stats;
            let want = GpuRunStats {
                idle: makespan.saturating_sub(s.busy + s.stall),
                sched_wall: rep.sched_wall,
                nvlink_loads: rep.nvlink_loads,
                nvlink_bytes: rep.nvlink_bytes,
                cache_hit_bytes: rep.cache_hit_bytes,
                cache_miss_bytes: rep.cache_miss_bytes,
                ..s.clone()
            };
            same(&format!("per_gpu[{g}]"), &want, rep)?;
        }
        let total = |f: fn(&GpuRunStats) -> u64| self.gpus.iter().map(|g| f(&g.stats)).sum();
        let load_bytes: u64 = total(|s| s.load_bytes);
        same("total_loads", total(|s| s.loads), report.total_loads)?;
        same("total_load_bytes", load_bytes, report.total_load_bytes)?;
        same(
            "total_evictions",
            total(|s| s.evictions),
            report.total_evictions,
        )?;
        same("total_flops", self.flops, report.total_flops)?;
        same("gpu_failures", self.failures, report.gpu_failures)?;
        same("transfer_retries", self.retries, report.transfer_retries)?;
        let redispatched = report.tasks_redispatched;
        ensure!(
            redispatched >= self.interrupted && (self.failures > 0 || redispatched == 0),
            "report tasks_redispatched is {redispatched}, with {} interrupted starts and {} \
             failures",
            self.interrupted,
            self.failures
        );
        let cache: u64 = report
            .per_gpu
            .iter()
            .map(|g| g.cache_hit_bytes + g.cache_miss_bytes)
            .sum();
        if redispatched == 0 {
            same("cache hit + miss bytes", self.footprints, cache)?;
        } else {
            ensure!(
                cache >= self.footprints,
                "report cache hit + miss bytes is {cache}, below the {} bytes the executed \
                 tasks use",
                self.footprints
            );
        }
        let online = self.online.then(|| self.online_stats(makespan));
        same("online", online.as_ref(), report.online.as_ref())?;

        // The model's bounds on what any schedule must load.
        let mut seen = vec![false; ts.num_data()];
        let mut compulsory = 0;
        for &t in self.gpus.iter().flat_map(|g| &g.order) {
            for d in ts.input_ids(t) {
                if !std::mem::replace(&mut seen[d.index()], true) {
                    compulsory += ts.data_size(d);
                }
            }
        }
        ensure!(
            load_bytes >= compulsory,
            "{load_bytes} bytes loaded, {compulsory} compulsory"
        );
        if ts.uniform_data_size() {
            let orders = self.gpus.iter().map(|g| g.order.clone()).collect();
            let orders = Schedule::from_lists(orders);
            let belady = replay(ts, &orders, self.spec.memory_bytes, EvictionPolicy::Belady)
                .map_err(|e| e.to_string())?;
            for (g, (gpu, b)) in self.gpus.iter().zip(&belady.per_gpu).enumerate() {
                ensure!(
                    gpu.stats.loads >= b.loads,
                    "GPU {g} makes {} loads, fewer than Belady's {} on its start order",
                    gpu.stats.loads,
                    b.loads
                );
            }
        }
        Ok(())
    }

    /// The [`OnlineStats`] the folded samples and counters imply.
    fn online_stats(&mut self, makespan: Nanos) -> OnlineStats {
        self.latencies.sort_unstable();
        self.queueing.sort_unstable();
        let secs = makespan as f64 / 1e9;
        let rate = |n: u64| if makespan == 0 { 0.0 } else { n as f64 / secs };
        let c = &self.counts;
        let per_class = self.ts.num_classes() > 1 || c.tasks_shed + c.deadline_expired > 0;
        let class_vec = |v: &Vec<u64>| if per_class { v.clone() } else { Vec::new() };
        let n = self.latencies.len() as Nanos;
        OnlineStats {
            p50_latency: quantile(&self.latencies, 0.50),
            p99_latency: quantile(&self.latencies, 0.99),
            mean_latency: self
                .latencies
                .iter()
                .sum::<Nanos>()
                .checked_div(n)
                .unwrap_or(0),
            p50_queueing: quantile(&self.queueing, 0.50),
            p99_queueing: quantile(&self.queueing, 0.99),
            throughput_tps: rate(n),
            goodput_tps: rate(self.good),
            shed_per_class: class_vec(&c.shed_per_class),
            completed_per_class: class_vec(&c.completed_per_class),
            ..c.clone()
        }
    }
}

/// `Err` naming `what` unless the folded and reported values are equal.
fn same<T: PartialEq + Debug>(what: &str, fold: T, report: T) -> Result<(), String> {
    ensure!(
        fold == report,
        "report {what} is {report:?}, the trace folds to {fold:?}"
    );
    Ok(())
}

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
fn quantile(sorted: &[Nanos], q: f64) -> Nanos {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Grow-and-bump a per-class counter vector.
fn bump_class(v: &mut Vec<u64>, class: u32) {
    let c = class as usize;
    if v.len() <= c {
        v.resize(c + 1, 0);
    }
    v[c] += 1;
}

/// The simulation time of any trace event.
fn time_of(ev: &TraceEvent) -> Nanos {
    match *ev {
        TraceEvent::LoadIssued { at, .. }
        | TraceEvent::LoadDone { at, .. }
        | TraceEvent::Evicted { at, .. }
        | TraceEvent::TaskStarted { at, .. }
        | TraceEvent::TaskFinished { at, .. }
        | TraceEvent::GpuFailed { at, .. }
        | TraceEvent::TransferRetry { at, .. }
        | TraceEvent::CapacityShrunk { at, .. }
        | TraceEvent::GpuSlowed { at, .. }
        | TraceEvent::TaskArrived { at, .. }
        | TraceEvent::TaskAdmitted { at, .. }
        | TraceEvent::TaskDeferred { at, .. }
        | TraceEvent::TaskShed { at, .. }
        | TraceEvent::DeadlineExpired { at, .. } => at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_with_config, AdmissionConfig};
    use crate::scheduler::{RuntimeView, Scheduler};
    use memsched_model::{GpuId, TaskSetBuilder};
    use std::collections::VecDeque;

    /// FIFO over every task (batch) or over the admitted ones (online).
    #[derive(Default)]
    struct Fifo(VecDeque<TaskId>);

    impl Scheduler for Fifo {
        fn name(&self) -> String {
            "fifo".into()
        }
        fn prepare(&mut self, ts: &TaskSet, _: &PlatformSpec) {
            self.0 = ts.tasks().collect();
        }
        fn prepare_stream(&mut self, _: &TaskSet, _: &PlatformSpec) {}
        fn on_task_arrival(&mut self, task: TaskId, _: &RuntimeView<'_>) {
            self.0.push_back(task);
        }
        fn pop_task(&mut self, _: GpuId, _: &RuntimeView<'_>) -> Option<TaskId> {
            self.0.pop_front()
        }
    }

    /// Tasks `{0,1}`, `{2,3}`, `{0,2}` of 1 ms each on one GPU holding two
    /// unit items, so loads queue on the bus and every task evicts. Online
    /// runs stream them in at 0, 100 and 200 ns under `DeadlineShed`
    /// (nothing carries a deadline, so nothing is shed).
    fn small_run(online: bool) -> (TaskSet, PlatformSpec, RunConfig, Vec<TraceEvent>, RunReport) {
        let mut b = TaskSetBuilder::new();
        let d: Vec<DataId> = (0..4).map(|_| b.add_data(1)).collect();
        for [x, y] in [[0, 1], [2, 3], [0, 2]] {
            b.add_task(&[d[x], d[y]], 1000.0);
        }
        let ts = b.build().with_arrivals(vec![0, 100, 200]);
        let spec = PlatformSpec {
            gpu_gflops: 1e-3,
            ..PlatformSpec::v100(1).with_memory(2).with_pipeline_depth(1)
        };
        let config = RunConfig {
            trace: TraceMode::Full,
            admission: online.then_some(AdmissionConfig {
                max_backlog: None,
                policy: ShedPolicy::DeadlineShed,
            }),
            ..RunConfig::default()
        };
        let (report, trace) = run_with_config(&ts, &spec, &mut Fifo::default(), &config).unwrap();
        (ts, spec, config, trace, report)
    }

    /// Index of the `n`-th event of `trace` of variant `kind`.
    fn nth(trace: &[TraceEvent], n: usize, kind: &str) -> usize {
        let mut hits = trace
            .iter()
            .enumerate()
            .filter(|(_, e)| format!("{e:?}").starts_with(kind));
        hits.nth(n).expect("no such event").0
    }

    /// The small runs pass; then one edit at a time to a run's trace or
    /// report breaks its own rule, so a validator that always passed, or
    /// failed for the wrong reason, would fail here.
    #[test]
    fn small_runs_pass_and_each_edit_breaks_its_own_rule() {
        type Edit = fn(&mut Vec<TraceEvent>, &mut RunReport);
        let cases: [(bool, Edit, &str); 9] = [
            (
                false,
                |t, _| {
                    let i = nth(t, 0, "TaskStarted");
                    t.insert(
                        i + 1,
                        TraceEvent::Evicted {
                            at: time_of(&t[i]),
                            gpu: 0,
                            data: 0,
                        },
                    );
                },
                "evicts data 0, an input of running task 0",
            ),
            (
                false,
                |t, _| {
                    let ev = t.remove(nth(t, 0, "TaskStarted"));
                    t.insert(nth(t, 0, "LoadDone"), ev);
                },
                "task 0 starts on GPU 0 with input 0 Loading",
            ),
            (
                false,
                |t, _| {
                    let ev = TraceEvent::LoadIssued {
                        at: 0,
                        gpu: 0,
                        data: 3,
                        done_at: 1 << 40,
                    };
                    t.insert(nth(t, 1, "LoadIssued") + 1, ev);
                },
                "takes GPU 0 to 3 bytes, past its capacity 2",
            ),
            (
                false,
                |t, _| {
                    t.remove(nth(t, 2, "TaskFinished"));
                },
                "task 2 never finishes",
            ),
            (
                true,
                |t, _| t.insert(nth(t, 0, "TaskAdmitted"), t[nth(t, 0, "TaskAdmitted")]),
                "task 0 is admitted twice",
            ),
            (
                true,
                |t, _| {
                    let i = nth(t, 1, "TaskAdmitted");
                    t[i] = TraceEvent::TaskShed {
                        at: time_of(&t[i]),
                        task: 1,
                    };
                },
                "task 1 starts after it was dropped",
            ),
            (
                false,
                |t, _| {
                    let i = nth(t, 1, "LoadIssued");
                    if let TraceEvent::LoadIssued { done_at, .. } = &mut t[i] {
                        *done_at -= 1;
                    }
                },
                "before it is free",
            ),
            (false, |_, r| r.total_loads += 1, "report total_loads"),
            (
                true,
                |_, r| r.per_gpu[0].cache_miss_bytes += 1,
                "report cache hit + miss bytes",
            ),
        ];
        for (online, edit, want) in cases {
            let (ts, spec, config, mut trace, mut report) = small_run(online);
            assert_eq!(validate(&ts, &spec, &config, &trace, &report), Ok(()));
            edit(&mut trace, &mut report);
            let got = validate(&ts, &spec, &config, &trace, &report).expect_err(want);
            assert!(got.message.contains(want), "want {want:?}, got {got}");
        }
    }
}
