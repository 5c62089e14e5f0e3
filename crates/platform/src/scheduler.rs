//! The scheduler interface: the contract between the runtime engine and
//! the scheduling policies of `memsched-schedulers`.
//!
//! Mirrors the structure of a StarPU scheduling policy: a static
//! preparation phase ([`Scheduler::prepare`]), a pull-mode task source
//! ([`Scheduler::pop_task`], called whenever a worker has pipeline room),
//! an eviction hook ([`Scheduler::choose_victim`], how DARTS installs LUF)
//! and event notifications ([`Scheduler::on_load_issued`],
//! [`Scheduler::on_data_loaded`], [`Scheduler::on_data_evicted`],
//! [`Scheduler::on_task_complete`]) so policies can maintain incremental
//! state instead of re-scanning the runtime view on every decision. The
//! eviction hook and the four notifications are optional: a policy
//! declares the ones it implements ([`Scheduler::hooks`]) and the engine
//! calls only those. A policy with per-worker queues also tells the
//! engine which workers to poll: it parks a worker that has nothing left
//! ([`RuntimeView::park`]) and unparks one it gives work
//! ([`RuntimeView::unpark`]), so an idle worker is not polled in vain.

use crate::memory::GpuMemory;
use crate::pipeline::Pipelines;
use crate::spec::{Nanos, PlatformSpec};
use memsched_model::{DataId, GpuId, TaskId, TaskSet};
use std::cell::{Cell, OnceCell};

/// The *missing inputs* of every task on every GPU: how many of a task's
/// inputs are absent (neither resident nor in flight), how many bytes
/// they amount to, and the sum of their ids (which recovers the identity
/// of the sole missing input when only one is left, or of the other one
/// of a missing pair).
///
/// The counters are a pure function of residency, so they are built from
/// current residency only when a policy first asks
/// ([`RuntimeView::missing`]). From then on the engine keeps them in step
/// with every residency transition — a load issue decrements the
/// counters of the data's consumers, an eviction increments them — so
/// each query is O(1) instead of a walk of the task's input list. The
/// upkeep is O(consumers(d)) per transition, amortized over the
/// decisions that would otherwise each rescan. A policy that never asks
/// (EAGER, the Router) never pays for it: each residency transition of
/// its runs stays O(1).
///
/// Stored as one flat stride-`m` array of 16-byte records, indexed
/// `gpu * m + task`: the missing bytes, and the missing count and id sum
/// packed into one word (`count << 48 | id_sum`). A million-task cache
/// is one allocation, and each consumer update touches one record.
#[derive(Clone, Debug)]
pub struct MissingCache {
    /// Row stride: number of tasks (one row per GPU).
    m: usize,
    /// Per (GPU, task): the absent inputs on that GPU.
    rec: Vec<Missing>,
}

/// The absent inputs of one task on one GPU.
#[derive(Clone, Copy, Debug)]
struct Missing {
    /// Bytes of absent inputs.
    bytes: u64,
    /// Number of absent inputs (bits 48–63) and the sum of their ids
    /// (bits 0–47). A task has fewer than 2^16 inputs and ids are `u32`,
    /// so the sum stays below 2^48 and one addition or subtraction of
    /// `1 << 48 | id` updates both fields.
    packed: u64,
}

/// Shift of the absent-input count in [`Missing::packed`].
const COUNT_SHIFT: u32 = 48;
/// Mask of the id sum in [`Missing::packed`].
const ID_SUM_MASK: u64 = (1 << COUNT_SHIFT) - 1;

impl Missing {
    #[inline]
    fn count(self) -> u64 {
        self.packed >> COUNT_SHIFT
    }

    #[inline]
    fn id_sum(self) -> u64 {
        self.packed & ID_SUM_MASK
    }
}

/// The [`Missing::packed`] contribution of one absent input `d`.
#[inline]
fn one_missing(d: DataId) -> u64 {
    1 << COUNT_SHIFT | d.0 as u64
}

impl MissingCache {
    /// The counters of the residency in `memories` (one per GPU).
    ///
    /// # Panics
    ///
    /// If a task has 2^16 or more inputs, more than the packed count
    /// holds.
    pub(crate) fn from_residency(ts: &TaskSet, memories: &[GpuMemory]) -> Self {
        let m = ts.num_tasks();
        let (offsets, ids) = ts.input_slab();
        if let Some(t) = (0..m).find(|&t| offsets[t + 1] - offsets[t] >= 1 << 16) {
            panic!(
                "task {t} has {} inputs; the missing-input counters hold at most 65535 per task",
                offsets[t + 1] - offsets[t]
            );
        }
        let mut rec = Vec::with_capacity(m * memories.len());
        for mem in memories {
            for t in 0..m {
                let mut r = Missing {
                    bytes: 0,
                    packed: 0,
                };
                for &d in &ids[offsets[t] as usize..offsets[t + 1] as usize] {
                    if !mem.is_resident_or_loading(DataId(d)) {
                        r.bytes += ts.data_size(DataId(d));
                        r.packed += one_missing(DataId(d));
                    }
                }
                rec.push(r);
            }
        }
        Self { m, rec }
    }

    #[inline]
    fn get(&self, gpu: GpuId, task: TaskId) -> Missing {
        self.rec[gpu.index() * self.m + task.index()]
    }

    /// Number of `task`'s inputs that are neither resident on `gpu` nor
    /// in flight to it.
    #[inline]
    pub fn inputs(&self, gpu: GpuId, task: TaskId) -> usize {
        self.get(gpu, task).count() as usize
    }

    /// Bytes of `task`'s inputs that are neither resident on `gpu` nor
    /// in flight to it — what the Ready heuristic minimizes.
    #[inline]
    pub fn bytes(&self, gpu: GpuId, task: TaskId) -> u64 {
        self.get(gpu, task).bytes
    }

    /// When exactly one input of `task` is missing on `gpu`, its id.
    #[inline]
    pub fn sole_input(&self, gpu: GpuId, task: TaskId) -> Option<DataId> {
        let r = self.get(gpu, task);
        (r.count() == 1).then(|| DataId(r.id_sum() as u32))
    }

    /// When exactly two inputs of `task` are missing on `gpu` and `d` is
    /// known to be one of them, the other one. Used by event-driven
    /// policies to re-aim a "one more load frees this task" contribution
    /// when `d` is evicted.
    #[inline]
    pub fn pair_partner(&self, gpu: GpuId, task: TaskId, d: DataId) -> Option<DataId> {
        let r = self.get(gpu, task);
        (r.count() == 2).then(|| DataId((r.id_sum() - d.0 as u64) as u32))
    }

    /// A transfer of `d` to `gpu` was issued (Absent → Loading).
    pub(crate) fn load_issued(&mut self, ts: &TaskSet, gpu: usize, d: DataId) {
        let size = ts.data_size(d);
        let one = one_missing(d);
        let row = &mut self.rec[gpu * self.m..(gpu + 1) * self.m];
        for &t in ts.consumers(d) {
            let r = &mut row[t as usize];
            debug_assert!(r.count() > 0);
            r.bytes -= size;
            r.packed -= one;
        }
    }

    /// `d` was evicted from `gpu` (Resident → Absent).
    pub(crate) fn evicted(&mut self, ts: &TaskSet, gpu: usize, d: DataId) {
        let size = ts.data_size(d);
        let one = one_missing(d);
        let row = &mut self.rec[gpu * self.m..(gpu + 1) * self.m];
        for &t in ts.consumers(d) {
            let r = &mut row[t as usize];
            r.bytes += size;
            r.packed += one;
        }
    }
}

/// Bytes of `task`'s inputs that are neither resident in `mem` nor in
/// flight to it, by a walk of the task's input list.
pub(crate) fn missing_bytes_in(ts: &TaskSet, mem: &GpuMemory, task: TaskId) -> u64 {
    ts.input_ids(task)
        .filter(|&d| !mem.is_resident_or_loading(d))
        .map(|d| ts.data_size(d))
        .sum()
}

/// The requests a policy makes during one callback through
/// [`RuntimeView::park`] and [`RuntimeView::unpark`]. The engine owns
/// them and every view borrows them, so a forwarding wrapper that passes
/// its view on passes them on too.
#[derive(Debug)]
pub(crate) struct Requests {
    /// [`Requests::PARK`] and [`Requests::UNPARK`] bits; zero when no
    /// request is pending.
    flags: Cell<u8>,
    /// The GPUs unparked since the engine last took them, one bit per
    /// GPU, 64 to a word.
    unparked: Box<[Cell<u64>]>,
}

impl Requests {
    /// The polled worker parks.
    const PARK: u8 = 1;
    /// At least one bit of `unparked` is set.
    const UNPARK: u8 = 1 << 1;

    /// No request pending, for a platform of `k` GPUs.
    pub(crate) fn new(k: usize) -> Self {
        Requests {
            flags: Cell::new(0),
            unparked: (0..k.div_ceil(64)).map(|_| Cell::new(0)).collect(),
        }
    }

    /// Whether any request is pending: the one load and branch a callback
    /// that makes none costs.
    #[inline]
    pub(crate) fn any(&self) -> bool {
        self.flags.get() != 0
    }

    /// Whether the polled worker asked to park, clearing the request.
    #[inline]
    pub(crate) fn take_park(&self) -> bool {
        let flags = self.flags.get();
        if flags & Self::PARK == 0 {
            return false;
        }
        self.flags.set(flags & !Self::PARK);
        true
    }

    /// Clear the unpark requests, handing each word of GPU bits (index,
    /// bits) with a member to `f`.
    pub(crate) fn take_unparks(&self, mut f: impl FnMut(usize, u64)) {
        let flags = self.flags.get();
        if flags & Self::UNPARK == 0 {
            return;
        }
        self.flags.set(flags & !Self::UNPARK);
        for (w, word) in self.unparked.iter().enumerate() {
            let bits = word.replace(0);
            if bits != 0 {
                f(w, bits);
            }
        }
    }
}

/// View of the runtime state, handed to scheduler callbacks.
///
/// Everything a dynamic policy may legitimately observe: data residency
/// per GPU, the bytes in flight to each GPU
/// ([`RuntimeView::loading_bytes`]), the missing-input counters derived
/// from residency (built on first use, [`RuntimeView::missing`]), the
/// worker pipelines (`taskBuffer_k`), the simulated clock and which GPUs
/// are alive. Schedulers must not assume anything else about the engine.
///
/// The view is read-only but for two requests a policy may make through
/// it: [`park`](RuntimeView::park) the worker it is polled for, and
/// [`unpark`](RuntimeView::unpark) a worker it gives work. Both only
/// save polls; neither changes what a policy may decide.
pub struct RuntimeView<'a> {
    pub(crate) ts: &'a TaskSet,
    pub(crate) spec: &'a PlatformSpec,
    pub(crate) now: Nanos,
    pub(crate) memories: &'a [GpuMemory],
    /// Per-GPU pipelines: tasks popped from the scheduler but not
    /// finished, in execution order (index 0 runs first). Includes the
    /// running task. One flat ring arena for all GPUs.
    pub(crate) buffers: &'a Pipelines,
    /// Missing-input counters per (GPU, task); empty until a policy
    /// first asks ([`RuntimeView::missing`]).
    pub(crate) missing: &'a OnceCell<MissingCache>,
    /// Per-GPU fail-stop flag: `true` once the GPU died. All-`false` in a
    /// fault-free run.
    pub(crate) dead: &'a [bool],
    /// The park and unpark requests of this callback.
    pub(crate) requests: &'a Requests,
}

impl<'a> RuntimeView<'a> {
    /// The task set being executed.
    pub fn task_set(&self) -> &'a TaskSet {
        self.ts
    }

    /// The platform description.
    pub fn spec(&self) -> &'a PlatformSpec {
        self.spec
    }

    /// Current simulated time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// True if `d` is usable by a task on `gpu` right now.
    pub fn is_resident(&self, gpu: GpuId, d: DataId) -> bool {
        self.memories[gpu.index()].is_resident(d)
    }

    /// True if `d` is resident on `gpu` or already being transferred there
    /// (the `InMem(k)` set of DMDA's Eq. (1) at runtime).
    pub fn is_resident_or_loading(&self, gpu: GpuId, d: DataId) -> bool {
        self.memories[gpu.index()].is_resident_or_loading(d)
    }

    /// True if `d` may not be evicted from `gpu` (pinned or in flight).
    pub fn is_pinned(&self, gpu: GpuId, d: DataId) -> bool {
        self.memories[gpu.index()].is_pinned(d)
    }

    /// Iterate over the data currently resident on `gpu`, in ascending id
    /// order (schedulers scanning this break score ties towards the
    /// smallest id, so the order is part of the determinism contract).
    pub fn resident(&self, gpu: GpuId) -> impl Iterator<Item = DataId> + 'a {
        self.memories[gpu.index()].resident()
    }

    /// Bytes currently used (resident + in flight) on `gpu`.
    pub fn used_bytes(&self, gpu: GpuId) -> u64 {
        self.memories[gpu.index()].used_bytes()
    }

    /// Bytes in flight to `gpu`: the sizes of its `Loading` data, whose
    /// transfers were issued and not yet delivered. A transfer that
    /// fails and is retried keeps its bytes here until its delivery.
    pub fn loading_bytes(&self, gpu: GpuId) -> u64 {
        self.memories[gpu.index()].loading_bytes()
    }

    /// Memory capacity of `gpu` in bytes.
    pub fn capacity(&self, gpu: GpuId) -> u64 {
        self.memories[gpu.index()].capacity()
    }

    /// The worker pipeline of `gpu` (`taskBuffer_k`): popped but
    /// unfinished tasks in execution order. An iterator because the
    /// engine's pipeline is a ring buffer and need not be contiguous.
    pub fn task_buffer(&self, gpu: GpuId) -> impl ExactSizeIterator<Item = TaskId> + Clone + 'a {
        self.buffers.iter(gpu.index())
    }

    /// The missing-input counters of every (GPU, task) pair. The first
    /// call of a run builds them from current residency; the engine keeps
    /// them in step from then on. Each call checks whether they exist, so
    /// a hook that queries many tasks takes the handle once and reads it
    /// per task.
    pub fn missing(&self) -> &'a MissingCache {
        self.missing
            .get_or_init(|| MissingCache::from_residency(self.ts, self.memories))
    }

    /// The missing-input counters if a hook of this run has already built
    /// them, without building them.
    pub fn missing_built(&self) -> Option<&'a MissingCache> {
        self.missing.get()
    }

    /// Reference implementation of [`MissingCache::bytes`]: re-walks the
    /// task's input list. Kept for the naive differential configurations
    /// and cache-consistency tests.
    pub fn missing_bytes_scan(&self, gpu: GpuId, task: TaskId) -> u64 {
        missing_bytes_in(self.ts, &self.memories[gpu.index()], task)
    }

    /// Reference implementation of [`MissingCache::inputs`] by input-list
    /// scan.
    pub fn missing_inputs_scan(&self, gpu: GpuId, task: TaskId) -> usize {
        self.ts
            .input_ids(task)
            .filter(|&d| !self.is_resident_or_loading(gpu, d))
            .count()
    }

    /// False once `gpu` suffered a fail-stop fault (see
    /// [`crate::FaultPlan`]). Always true in a fault-free run. Recovery
    /// logic re-routing orphaned tasks must only target alive GPUs.
    pub fn is_alive(&self, gpu: GpuId) -> bool {
        !self.dead[gpu.index()]
    }

    /// Park the worker this [`Scheduler::pop_task`] call polls: the
    /// policy will have nothing for it until it queues more work there
    /// and calls [`unpark`](Self::unpark). The engine stops polling a
    /// parked worker; it stays parked until unparked, whatever else
    /// happens. A policy may park with a `None` answer or while it hands
    /// over the last task of the worker's queue.
    ///
    /// Valid only inside `pop_task` (debug builds assert it). A policy
    /// whose `None` can turn into a task without new work queued for the
    /// worker — by an eviction, a load or a steal — must not park.
    pub fn park(&self) {
        let r = self.requests;
        r.flags.set(r.flags.get() | Requests::PARK);
    }

    /// Wake `gpu`'s worker if it is parked: the policy just gave it work.
    /// Valid from any callback; the engine polls the worker again once
    /// the callback returns. Unparking a worker that is not parked
    /// changes nothing.
    pub fn unpark(&self, gpu: GpuId) {
        let r = self.requests;
        let g = gpu.index();
        let word = &r.unparked[g / 64];
        word.set(word.get() | 1 << (g % 64));
        r.flags.set(r.flags.get() | Requests::UNPARK);
    }
}

/// The optional hooks a policy implements, declared by
/// [`Scheduler::hooks`]: any union (`|`) of [`Hooks::ON_LOAD_ISSUED`],
/// [`Hooks::ON_DATA_LOADED`], [`Hooks::ON_DATA_EVICTED`],
/// [`Hooks::ON_TASK_COMPLETE`] and [`Hooks::CHOOSE_VICTIM`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hooks(u8);

impl Hooks {
    /// No optional hook: the engine never calls one.
    pub const NONE: Hooks = Hooks(0);
    /// [`Scheduler::on_load_issued`].
    pub const ON_LOAD_ISSUED: Hooks = Hooks(1);
    /// [`Scheduler::on_data_loaded`].
    pub const ON_DATA_LOADED: Hooks = Hooks(1 << 1);
    /// [`Scheduler::on_data_evicted`].
    pub const ON_DATA_EVICTED: Hooks = Hooks(1 << 2);
    /// [`Scheduler::on_task_complete`].
    pub const ON_TASK_COMPLETE: Hooks = Hooks(1 << 3);
    /// [`Scheduler::choose_victim`].
    pub const CHOOSE_VICTIM: Hooks = Hooks(1 << 4);
    /// All five: the default declaration.
    pub const ALL: Hooks = Hooks(0b1_1111);

    /// Whether every hook of `hooks` is in this set.
    #[inline]
    pub const fn contains(self, hooks: Hooks) -> bool {
        self.0 & hooks.0 == hooks.0
    }
}

impl std::ops::BitOr for Hooks {
    type Output = Hooks;

    fn bitor(self, rhs: Hooks) -> Hooks {
        Hooks(self.0 | rhs.0)
    }
}

/// A scheduling policy driven by the runtime engine.
///
/// All methods take `&mut self`; the engine serializes calls (the
/// simulation is single-threaded and deterministic).
///
/// Five hooks are optional, and a policy declares the ones it overrides
/// in [`hooks`](Self::hooks): the engine skips the others. A policy that
/// overrides a hook without declaring it is never called there.
pub trait Scheduler {
    /// Human-readable name used in reports ("DARTS+LUF", "DMDAR", …).
    fn name(&self) -> String;

    /// Static phase run once before the clock starts: partitioning
    /// (hMETIS+R), packing (HFP), or the DMDA allocation loop. The wall
    /// time spent here is measured by the engine and optionally charged
    /// to the makespan.
    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        let _ = (ts, spec);
    }

    /// Static phase of an **online** run: called instead of
    /// [`prepare`](Self::prepare) when the engine serves a task stream.
    /// The scheduler must start with an *empty* visible horizon — every
    /// task (including those arriving at t = 0) is delivered through
    /// [`on_task_arrival`](Self::on_task_arrival), in admission order.
    ///
    /// The default delegates to `prepare`, which makes the whole set
    /// visible up front: correct only for policies that tolerate popping
    /// unarrived tasks never happening (the engine asserts released-only
    /// pops in debug builds). All built-in families override this.
    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.prepare(ts, spec);
    }

    /// `task` was admitted into the visible horizon of an online run
    /// (either at t = 0 before the clock starts, or mid-stream when its
    /// arrival event fires and the admission check passes). The scheduler
    /// must make the task poppable; tasks never delivered here must never
    /// be returned from [`pop_task`](Self::pop_task) in an online run.
    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        let _ = (task, view);
    }

    /// The optional hooks this policy implements. The engine reads the
    /// declaration once per run and, for every hook left out, skips the
    /// call, the view it would build and the callback timing
    /// (`sched_wall`); an undeclared [`choose_victim`](Self::choose_victim)
    /// goes straight to the engine's LRU fallback. Declaring a hook the
    /// policy does not override changes nothing but the cost.
    ///
    /// The default declares all five, so a policy (or a forwarding
    /// wrapper) that does not override this method is called exactly as
    /// if the declaration did not exist.
    fn hooks(&self) -> Hooks {
        Hooks::ALL
    }

    /// A worker on `gpu` has pipeline room and requests a task. Return
    /// `None` if no task should run on this GPU right now (the engine
    /// retries after the next state change).
    ///
    /// A policy that knows it will have nothing for `gpu` until it queues
    /// more work there — per-worker queues, as in the Router or DMDA —
    /// parks the worker ([`RuntimeView::park`]), with the `None` or with
    /// the last task of the queue, and unparks it
    /// ([`RuntimeView::unpark`]) from whichever callback next gives it
    /// work. The engine then skips the polls in between, which would all
    /// answer `None`. A policy that never parks is polled after every
    /// state change that could matter, as without the requests.
    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId>;

    /// The engine must evict data from `gpu` to make room. Return a
    /// victim (must be resident and unpinned — the engine validates and
    /// falls back to LRU on `None` or invalid choices). This is how
    /// DARTS installs its LUF policy; the default defers to LRU.
    /// Optional: called only if [`hooks`](Self::hooks) declares
    /// [`Hooks::CHOOSE_VICTIM`].
    fn choose_victim(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        let _ = (gpu, view);
        None
    }

    /// `task` finished on `gpu`. Optional: called only if
    /// [`hooks`](Self::hooks) declares [`Hooks::ON_TASK_COMPLETE`].
    fn on_task_complete(&mut self, gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        let _ = (gpu, task, view);
    }

    /// A transfer of `data` to `gpu` was **issued** (the data is now
    /// `Loading`: reserved in memory and counted by
    /// [`RuntimeView::is_resident_or_loading`]). Fired before the
    /// matching [`on_data_loaded`](Self::on_data_loaded). Policies that
    /// maintain per-data "free task" state incrementally (DARTS) update
    /// it here, since their decision rules already treat in-flight data
    /// as available. Optional: called only if [`hooks`](Self::hooks)
    /// declares [`Hooks::ON_LOAD_ISSUED`].
    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        let _ = (gpu, data, view);
    }

    /// A transfer of `data` to `gpu` completed. Optional: called only if
    /// [`hooks`](Self::hooks) declares [`Hooks::ON_DATA_LOADED`].
    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        let _ = (gpu, data, view);
    }

    /// `data` was evicted from `gpu`. Optional: called only if
    /// [`hooks`](Self::hooks) declares [`Hooks::ON_DATA_EVICTED`].
    fn on_data_evicted(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        let _ = (gpu, data, view);
    }

    /// `gpu` suffered a fail-stop fault. `lost` is its pipeline at the
    /// time of death in execution order (the interrupted running task
    /// first); these tasks never completed and must be made poppable
    /// again, or they are lost and the run ends in
    /// [`crate::RunError::SchedulerStuck`]. `view` already reports the
    /// GPU as dead ([`RuntimeView::is_alive`] is false) and its pipeline
    /// as empty. The engine never calls `pop_task` for a dead GPU again.
    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        let _ = (gpu, lost, view);
    }

    /// A transfer of `data` to `gpu` failed transiently and was re-queued
    /// (attempt number `attempt` is about to run). Informational: the
    /// engine owns the retry; the data stays `Loading` throughout.
    fn on_transfer_retry(
        &mut self,
        gpu: GpuId,
        data: DataId,
        attempt: u32,
        view: &RuntimeView<'_>,
    ) {
        let _ = (gpu, data, attempt, view);
    }

    /// `gpu`'s memory capacity changed to `capacity` bytes (fault-induced
    /// shrink). Evictions forced by the shrink have already fired their
    /// own [`on_data_evicted`](Self::on_data_evicted) notifications.
    fn on_capacity_changed(&mut self, gpu: GpuId, capacity: u64, view: &RuntimeView<'_>) {
        let _ = (gpu, capacity, view);
    }

    /// Whether this policy's dispatch decomposes per PCI-bus group.
    /// Nothing in the workspace calls it; it stays only because an
    /// out-of-workspace forwarding wrapper still overrides it.
    fn decomposes_per_group(&self) -> bool {
        false
    }

    /// Tasks this policy dispatches to each bus group (`groups` maps GPU
    /// index → group id). Nothing in the workspace calls it; it stays
    /// only because an out-of-workspace forwarding wrapper still
    /// overrides it.
    fn group_task_counts(&self, groups: &[usize], num_groups: usize) -> Option<Vec<usize>> {
        let _ = (groups, num_groups);
        None
    }

    /// An observability probe was attached for this run
    /// ([`crate::run_observed`]). Schedulers that emit their own events
    /// (queue-depth gauges, steal records) keep the clone; the default
    /// ignores it, so policies without internal state to expose need no
    /// changes. Never called on the unobserved path, which therefore
    /// stays byte-identical.
    fn attach_probe(&mut self, probe: memsched_obs::Probe) {
        let _ = probe;
    }
}
