//! DARTS — Data-Aware Reactive Task Scheduling (Algorithm 5) with the LUF
//! (Least Used in the Future) eviction policy (Algorithm 6), §IV-D.
//!
//! DARTS inverts the usual scheduling question: instead of choosing a task
//! and fetching its data, it chooses the **data** whose load enables the
//! most "free" tasks — tasks all of whose other inputs are already on the
//! GPU — and reserves those tasks (`plannedTasks_k`). Tie-breaks are
//! randomized so concurrent GPUs rarely compete for the same data.
//!
//! Variants from the paper:
//! * **LUF eviction** — evict a data item unused by the committed
//!   `taskBuffer_k`, with the fewest uses in `plannedTasks_k`; fall back
//!   to Belady's rule on `taskBuffer_k`;
//! * **3inputs** — when no single data frees a task, pick a data belonging
//!   to the most "one more load" pairs instead of a random task;
//! * **OPTI** — stop the candidate scan at the first data enabling ≥ 1
//!   free task (bounds the scheduling time on huge task sets);
//! * **threshold** — cap the number of candidate data examined per refill.
//!
//! # Incremental hot path
//!
//! The paper flags the candidate scan as DARTS's scalability weakness
//! (Fig. 8): recomputing `nbFreeTasks(D)` for every unloaded data on every
//! refill costs `O(|D| · consumers · inputs)`. This implementation instead
//! maintains, per GPU, the exact quantity the scan derives — `n_free[d]` =
//! number of FREE tasks whose missing inputs are contained in `{d}` — as
//! event-driven state, updated from the engine's residency notifications
//! ([`Scheduler::on_load_issued`], [`Scheduler::on_data_evicted`]) and the
//! scheduler's own task-state transitions. The candidates live in a bucket
//! queue ([`UsefulIndex`]) keyed by `n_free`, so a refill pops the argmax
//! in `O(|ties|)`; each residency or task event costs `O(consumers(d))` or
//! `O(inputs(t))` — amortized, the work the scan redid per decision is
//! done once per event. The selection is *provably the same*: candidate
//! order and tie sets are reproduced exactly (ascending data id, identical
//! RNG draw placement), which the golden traces and the `naive`
//! differential tests enforce. The original full-scan implementation is
//! kept behind the `naive` feature as the reference.

use memsched_model::{DataId, GpuId, TaskId, TaskSet};
use memsched_platform::obs::{GaugeKind, ObsEvent};
use memsched_platform::{Hooks, PlatformSpec, Probe, RuntimeView, Scheduler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

/// Eviction policy used by DARTS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DartsEviction {
    /// The runtime default (StarPU-style LRU).
    Lru,
    /// Least Used in the Future (Algorithm 6).
    Luf,
}

/// Configuration of [`DartsScheduler`].
#[derive(Clone, Debug)]
pub struct DartsConfig {
    /// Eviction policy.
    pub eviction: DartsEviction,
    /// Enable the 3inputs fallback.
    pub three_inputs: bool,
    /// Enable the OPTI early-exit scan.
    pub opti: bool,
    /// Cap on the number of candidate data examined per refill.
    pub threshold: Option<usize>,
    /// Seed for randomized tie-breaking.
    pub seed: u64,
    /// Run the original full-scan implementations instead of the
    /// incremental ones (differential testing only).
    #[cfg(feature = "naive")]
    pub naive: bool,
}

impl Default for DartsConfig {
    fn default() -> Self {
        Self {
            eviction: DartsEviction::Luf,
            three_inputs: false,
            opti: false,
            threshold: None,
            seed: 0xDA27,
            #[cfg(feature = "naive")]
            naive: false,
        }
    }
}

impl DartsConfig {
    /// Plain DARTS with LRU eviction (the "DARTS" curves of the paper).
    pub fn lru() -> Self {
        Self {
            eviction: DartsEviction::Lru,
            ..Self::default()
        }
    }

    /// DARTS+LUF (the paper's headline configuration).
    pub fn luf() -> Self {
        Self::default()
    }

    /// Builder: enable 3inputs.
    pub fn with_three_inputs(mut self) -> Self {
        self.three_inputs = true;
        self
    }

    /// Builder: enable OPTI.
    pub fn with_opti(mut self) -> Self {
        self.opti = true;
        self
    }

    /// Builder: set the candidate threshold.
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = Some(threshold.max(1));
        self
    }

    /// Builder: set the tie-break seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: use the original full-scan reference implementation.
    #[cfg(feature = "naive")]
    pub fn with_naive(mut self) -> Self {
        self.naive = true;
        self
    }
}

/// Bucket queue over the *useful* candidates of one GPU: the data ids `d`
/// with `dataNotInMem[d] && n_free[d] > 0`, bucketed by `n_free` value.
///
/// Updates must be O(1) — they run inside the engine's residency event
/// hooks, once per consumer per load/evict — so `buckets[n]` is an
/// unsorted `Vec` with a per-data position index (`pos`) for swap-remove.
/// The ascending-id tie order the naive scan produces is recovered at
/// refill time by sorting the (small) argmax bucket. `all` keeps the
/// whole candidate set in ascending order, but only the OPTI/threshold
/// variants read it, so it is maintained only when `ordered` is set.
/// `max_n` is maintained lazily downwards, amortized O(1) per operation.
#[derive(Clone, Debug, Default)]
struct UsefulIndex {
    /// Maintain `all` (required by the OPTI and threshold variants).
    ordered: bool,
    all: BTreeSet<u32>,
    buckets: Vec<Vec<u32>>,
    /// Per data id: index within its bucket (meaningless when absent).
    pos: Vec<u32>,
    max_n: usize,
    len: usize,
}

impl UsefulIndex {
    fn new(num_data: usize, ordered: bool) -> Self {
        Self {
            ordered,
            all: BTreeSet::new(),
            buckets: Vec::new(),
            pos: vec![0; num_data],
            max_n: 0,
            len: 0,
        }
    }

    fn insert(&mut self, d: u32, n: u32) {
        debug_assert!(n > 0);
        if self.ordered {
            self.all.insert(d);
        }
        let n = n as usize;
        if self.buckets.len() <= n {
            self.buckets.resize_with(n + 1, Vec::new);
        }
        self.pos[d as usize] = self.buckets[n].len() as u32;
        self.buckets[n].push(d);
        self.max_n = self.max_n.max(n);
        self.len += 1;
    }

    fn remove(&mut self, d: u32, n: u32) {
        if self.ordered {
            self.all.remove(&d);
        }
        let bucket = &mut self.buckets[n as usize];
        let i = self.pos[d as usize] as usize;
        debug_assert_eq!(bucket[i], d);
        bucket.swap_remove(i);
        if let Some(&moved) = bucket.get(i) {
            self.pos[moved as usize] = i as u32;
        }
        while self.max_n > 0 && self.buckets[self.max_n].is_empty() {
            self.max_n -= 1;
        }
        self.len -= 1;
    }

    /// `d`'s `n_free` changed from `old` to `new` while it stayed (or
    /// became / stopped being) a member.
    fn reposition(&mut self, d: u32, old: u32, new: u32) {
        match (old, new) {
            (o, n) if o == n => {}
            (0, n) => self.insert(d, n),
            (o, 0) => self.remove(d, o),
            (o, n) => {
                // Move buckets without touching `all` (membership stable).
                let bucket = &mut self.buckets[o as usize];
                let i = self.pos[d as usize] as usize;
                debug_assert_eq!(bucket[i], d);
                bucket.swap_remove(i);
                if let Some(&moved) = bucket.get(i) {
                    self.pos[moved as usize] = i as u32;
                }
                let n = n as usize;
                if self.buckets.len() <= n {
                    self.buckets.resize_with(n + 1, Vec::new);
                }
                self.pos[d as usize] = self.buckets[n].len() as u32;
                self.buckets[n].push(d);
                self.max_n = self.max_n.max(n);
                while self.max_n > 0 && self.buckets[self.max_n].is_empty() {
                    self.max_n -= 1;
                }
            }
        }
    }

    /// The argmax tie set in ascending id order (the naive scan's tie
    /// order), written into `out`.
    fn argmax_sorted(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.buckets[self.max_n]);
        out.sort_unstable();
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A Fenwick tree over task ids supporting O(log m) insert/remove and
/// "select the k-th smallest member" — the uniform random FREE-task draw
/// without the O(m) state scan.
#[derive(Clone, Debug, Default)]
struct FenwickSet {
    tree: Vec<u32>, // 1-based partial counts
}

impl FenwickSet {
    /// The full set {0, …, m-1}.
    fn full(m: usize) -> Self {
        let mut s = Self::empty(m);
        for i in 0..m {
            s.add(i, 1);
        }
        s
    }

    /// The empty set over the universe {0, …, m-1} (online mode: tasks
    /// join as they arrive).
    fn empty(m: usize) -> Self {
        Self {
            tree: vec![0; m + 1],
        }
    }

    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    fn insert(&mut self, i: usize) {
        self.add(i, 1);
    }

    fn remove(&mut self, i: usize) {
        self.add(i, -1);
    }

    /// The k-th smallest member (0-based rank). Caller guarantees the set
    /// holds more than `k` elements.
    fn select(&self, mut k: u32) -> usize {
        let n = self.tree.len() - 1;
        let mut pos = 0usize;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= k {
                pos = next;
                k -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

/// The DARTS scheduler.
pub struct DartsScheduler {
    cfg: DartsConfig,
    rng: StdRng,
    /// Per GPU: the data this GPU has not (knowingly) loaded yet.
    data_not_in_mem: Vec<Vec<bool>>,
    /// Per GPU: planned (reserved) tasks, popped front-first.
    planned: Vec<VecDeque<TaskId>>,
    /// Task state: 0 = unallocated, 1 = planned/running, 2 = done.
    task_state: Vec<u8>,
    /// Number of tasks not yet planned or done.
    unallocated: usize,
    /// Number of tasks not yet done (planned or not).
    unfinished: usize,
    // --- incremental hot-path state (bypassed in naive mode) ---
    /// Per GPU: ordered mirror of `data_not_in_mem` (3inputs scan domain).
    not_in_mem_ids: Vec<BTreeSet<u32>>,
    /// Per GPU, per data: FREE tasks whose missing inputs ⊆ {d} — the
    /// `nbFreeTasks(D)` the naive refill recomputes per candidate.
    n_free: Vec<Vec<u32>>,
    /// Per GPU: bucket queue over {d : not_in_mem[d] && n_free[d] > 0}.
    useful: Vec<UsefulIndex>,
    /// Per GPU, per data: uses in `planned[g]` — LUF's np(D) in O(1).
    planned_uses: Vec<Vec<u32>>,
    /// Per data: consumers not yet DONE — Algorithm 5 line 9's tie-break.
    n_unprocessed: Vec<u32>,
    /// Per GPU, per data (3inputs variant only): FREE consumers with
    /// exactly one / exactly two missing inputs. Together they give the
    /// 3inputs candidate score in O(1): a FREE consumer of `D` counts
    /// exactly when its missing count is 1 if `D` is loaded/loading
    /// (the sole missing input is the "one more load") or 2 if `D` is
    /// absent (`D` itself is necessarily one of the two).
    m1_consumers: Vec<Vec<u32>>,
    m2_consumers: Vec<Vec<u32>>,
    /// The FREE task ids, supporting the k-th-smallest draw.
    free_tasks: FenwickSet,
    /// Reused buffer for the refill argmax tie set (avoids a per-decision
    /// allocation on the hottest path).
    refill_scratch: Vec<u32>,
    /// Reused buffer for the tasks reserved by a refill.
    reserve_scratch: Vec<TaskId>,
    /// Per data: epoch stamp + first-use position in the task buffer,
    /// rebuilt in one buffer pass per LUF eviction decision.
    cv_stamp: Vec<u32>,
    cv_first: Vec<u32>,
    cv_epoch: u32,
    /// Observability probe (`nbFreeTasks` / planned-depth gauges).
    probe: Option<Probe>,
}

const FREE: u8 = 0;
const TAKEN: u8 = 1;
const DONE: u8 = 2;
/// Online mode only: the task has not arrived yet — invisible to every
/// decision rule until `on_task_arrival` releases it to FREE.
const PENDING: u8 = 3;

impl DartsScheduler {
    /// Build with the given configuration.
    pub fn new(cfg: DartsConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            rng,
            data_not_in_mem: Vec::new(),
            planned: Vec::new(),
            task_state: Vec::new(),
            unallocated: 0,
            unfinished: 0,
            not_in_mem_ids: Vec::new(),
            n_free: Vec::new(),
            useful: Vec::new(),
            planned_uses: Vec::new(),
            n_unprocessed: Vec::new(),
            m1_consumers: Vec::new(),
            m2_consumers: Vec::new(),
            free_tasks: FenwickSet::default(),
            refill_scratch: Vec::new(),
            reserve_scratch: Vec::new(),
            cv_stamp: Vec::new(),
            cv_first: Vec::new(),
            cv_epoch: 0,
            probe: None,
        }
    }

    #[inline]
    fn is_naive(&self) -> bool {
        #[cfg(feature = "naive")]
        {
            self.cfg.naive
        }
        #[cfg(not(feature = "naive"))]
        {
            false
        }
    }

    /// Number of free (unallocated, unfinished) tasks enabled by loading
    /// `d` on `gpu`: tasks consuming `d` whose other inputs are all
    /// resident (or already in flight). Reference implementation of the
    /// `n_free` counters, used by the naive configuration.
    #[cfg(feature = "naive")]
    fn n_free_scan(&self, ts: &TaskSet, view: &RuntimeView<'_>, gpu: GpuId, d: DataId) -> usize {
        ts.consumer_ids(d)
            .filter(|&t| self.task_state[t.index()] == FREE)
            .filter(|&t| {
                ts.input_ids(t)
                    .all(|i| i == d || view.is_resident_or_loading(gpu, i))
            })
            .count()
    }

    /// Number of unprocessed (not DONE) tasks depending on `d` by scan —
    /// reference implementation of the `n_unprocessed` counters.
    #[cfg(feature = "naive")]
    fn n_unprocessed_scan(&self, ts: &TaskSet, d: DataId) -> usize {
        // FREE | TAKEN, not `!= DONE`: online mode must not count tasks
        // that have not arrived yet (batch has no PENDING state, so this
        // is the historical filter there).
        ts.consumer_ids(d)
            .filter(|&t| matches!(self.task_state[t.index()], FREE | TAKEN))
            .count()
    }

    /// Adjust `n_free[g][d]` by `delta`, keeping the bucket queue in sync
    /// when `d` is a useful candidate (i.e. believed not in memory).
    fn bump_n_free(&mut self, g: usize, d: u32, delta: i32) {
        let slot = &mut self.n_free[g][d as usize];
        let old = *slot;
        let new = (old as i64 + delta as i64) as u32;
        *slot = new;
        if self.data_not_in_mem[g][d as usize] {
            self.useful[g].reposition(d, old, new);
        }
    }

    /// Add (`delta = 1`) or withdraw (`delta = -1`) the contribution of a
    /// FREE task to the `n_free` counters of **every** GPU: a task with no
    /// missing input on `g` counts for each of its inputs there; one
    /// missing input counts for that input alone; more counts for none.
    fn contrib(&mut self, ts: &TaskSet, view: &RuntimeView<'_>, t: TaskId, delta: i32) {
        let missing = view.missing();
        for g in 0..self.planned.len() {
            let gpu = GpuId(g as u32);
            let m = missing.inputs(gpu, t);
            match m {
                0 => {
                    for &i in ts.inputs(t) {
                        self.bump_n_free(g, i, delta);
                    }
                }
                1 => {
                    let sole = missing.sole_input(gpu, t).expect("one missing input");
                    self.bump_n_free(g, sole.0, delta);
                }
                _ => {}
            }
            if self.cfg.three_inputs && (m == 1 || m == 2) {
                let counts = if m == 1 {
                    &mut self.m1_consumers
                } else {
                    &mut self.m2_consumers
                };
                for &i in ts.inputs(t) {
                    let slot = &mut counts[g][i as usize];
                    *slot = (*slot as i64 + delta as i64) as u32;
                }
            }
        }
    }

    /// Flip `dataNotInMem_g[d]`, keeping the ordered mirror and the
    /// candidate bucket queue consistent. Idempotent like the plain
    /// boolean write it replaces.
    fn set_not_in_mem(&mut self, g: usize, d: u32, absent: bool) {
        if self.data_not_in_mem[g][d as usize] == absent {
            return;
        }
        self.data_not_in_mem[g][d as usize] = absent;
        if self.is_naive() {
            return;
        }
        // The ordered mirror is the 3inputs scan domain — skip its
        // maintenance for every other variant.
        if self.cfg.three_inputs {
            if absent {
                self.not_in_mem_ids[g].insert(d);
            } else {
                self.not_in_mem_ids[g].remove(&d);
            }
        }
        let n = self.n_free[g][d as usize];
        if n > 0 {
            if absent {
                self.useful[g].insert(d, n);
            } else {
                self.useful[g].remove(d, n);
            }
        }
    }

    /// A planned task left `planned[g]` for the worker pipeline.
    fn on_planned_pop(&mut self, ts: &TaskSet, g: usize, t: TaskId) {
        if self.is_naive() {
            return;
        }
        for &i in ts.inputs(t) {
            self.planned_uses[g][i as usize] -= 1;
        }
    }

    /// Fill `plannedTasks_gpu` by selecting the best data to load
    /// (Algorithm 5, lines 4–11). Returns true if tasks were planned.
    ///
    /// The candidate set is read off the bucket queue instead of scanned;
    /// each variant reproduces the naive scan outcome exactly:
    /// * **OPTI** — the scan stops at the first useful candidate, i.e. the
    ///   smallest id in the useful set;
    /// * **threshold** — the scan sees exactly the first `cap` useful
    ///   candidates in ascending id order and keeps the argmax among them
    ///   (all ties, in scan order);
    /// * **plain** — the whole argmax bucket, ascending by id.
    fn refill(&mut self, ts: &TaskSet, view: &RuntimeView<'_>, gpu: GpuId) -> bool {
        #[cfg(feature = "naive")]
        if self.cfg.naive {
            return self.refill_scan(ts, view, gpu);
        }
        let g = gpu.index();
        if self.useful[g].is_empty() {
            return false;
        }
        let mut tie = std::mem::take(&mut self.refill_scratch);
        if self.cfg.opti {
            tie.clear();
            tie.push(*self.useful[g].all.iter().next().expect("non-empty"));
        } else if let Some(cap) = self.cfg.threshold {
            tie.clear();
            let mut best = 0u32;
            for &d in self.useful[g].all.iter().take(cap) {
                let n = self.n_free[g][d as usize];
                if n > best {
                    best = n;
                    tie.clear();
                    tie.push(d);
                } else if n == best {
                    tie.push(d);
                }
            }
        } else {
            self.useful[g].argmax_sorted(&mut tie);
        }
        debug_assert!(!tie.is_empty());

        // Among equals, prefer the data useful to the most tasks overall;
        // break the remaining ties randomly (Algorithm 5, line 9). Two
        // passes over the tie set — count the finalists, draw one, walk to
        // it — so no per-decision allocation.
        let mut best_useful = 0u32;
        let mut num_finalists = 0usize;
        for &d in &tie {
            let n = self.n_unprocessed[d as usize];
            if n > best_useful {
                best_useful = n;
                num_finalists = 1;
            } else if n == best_useful {
                num_finalists += 1;
            }
        }
        let pick = self.rng.random_range(0..num_finalists);
        let mut dopt = DataId(tie[0]);
        let mut seen = 0usize;
        for &d in &tie {
            if self.n_unprocessed[d as usize] == best_useful {
                if seen == pick {
                    dopt = DataId(d);
                    break;
                }
                seen += 1;
            }
        }
        self.refill_scratch = tie;

        // Reserve every free task enabled by dopt: missing inputs ⊆ {dopt}.
        let mut free = std::mem::take(&mut self.reserve_scratch);
        free.clear();
        let missing = view.missing();
        free.extend(
            ts.consumer_ids(dopt)
                .filter(|&t| self.task_state[t.index()] == FREE)
                .filter(|&t| match missing.inputs(gpu, t) {
                    0 => true,
                    1 => missing.sole_input(gpu, t) == Some(dopt),
                    _ => false,
                }),
        );
        for &t in &free {
            self.contrib(ts, view, t, -1);
            self.free_tasks.remove(t.index());
            self.task_state[t.index()] = TAKEN;
            self.unallocated -= 1;
            self.planned[g].push_back(t);
            for &i in ts.inputs(t) {
                self.planned_uses[g][i as usize] += 1;
            }
        }
        let planned_any = !free.is_empty();
        self.reserve_scratch = free;
        self.set_not_in_mem(g, dopt.0, false);
        planned_any
    }

    /// The original full-scan refill, kept verbatim as the differential
    /// reference (the `naive` configuration).
    #[cfg(feature = "naive")]
    fn refill_scan(&mut self, ts: &TaskSet, view: &RuntimeView<'_>, gpu: GpuId) -> bool {
        let g = gpu.index();
        let mut nmax = 0usize;
        let mut candidates: Vec<DataId> = Vec::new();
        let mut useful = 0usize;
        for di in 0..ts.num_data() {
            if !self.data_not_in_mem[g][di] {
                continue;
            }
            let d = DataId::from_usize(di);
            // The threshold variant stops after examining `cap` *useful*
            // candidates (data enabling at least one free task), keeping
            // the best seen so far — bounding the scan like the paper's
            // Figure 8 fix while preserving a reasonable choice.
            if let Some(cap) = self.cfg.threshold {
                if useful >= cap {
                    break;
                }
            }
            let n = self.n_free_scan(ts, view, gpu, d);
            if n > 0 {
                useful += 1;
            }
            if n > nmax {
                nmax = n;
                candidates.clear();
                candidates.push(d);
                if self.cfg.opti {
                    break; // first data enabling at least one task wins
                }
            } else if n == nmax && n > 0 {
                candidates.push(d);
            }
        }
        if nmax == 0 {
            return false;
        }
        // Among equals, prefer the data useful to the most tasks overall;
        // break the remaining ties randomly (Algorithm 5, line 9).
        let scored: Vec<(DataId, usize)> = candidates
            .into_iter()
            .map(|d| (d, self.n_unprocessed_scan(ts, d)))
            .collect();
        let best_useful = scored
            .iter()
            .map(|&(_, n)| n)
            .max()
            .expect("candidates non-empty");
        let finalists: Vec<DataId> = scored
            .into_iter()
            .filter(|&(_, n)| n == best_useful)
            .map(|(d, _)| d)
            .collect();
        let dopt = finalists[self.rng.random_range(0..finalists.len())];

        // Reserve every free task enabled by dopt.
        let free: Vec<TaskId> = ts
            .consumer_ids(dopt)
            .filter(|&t| self.task_state[t.index()] == FREE)
            .filter(|&t| {
                ts.input_ids(t)
                    .all(|i| i == dopt || view.is_resident_or_loading(gpu, i))
            })
            .collect();
        for &t in &free {
            self.task_state[t.index()] = TAKEN;
            self.unallocated -= 1;
            self.planned[g].push_back(t);
        }
        self.data_not_in_mem[g][dopt.index()] = false;
        !free.is_empty()
    }

    /// The original LUF victim scan: nb(D) and the next-use position are
    /// recomputed with a buffer scan per resident item, np(D) with a
    /// planned-queue scan (the `naive` configuration).
    #[cfg(feature = "naive")]
    fn choose_victim_scan(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        let ts = view.task_set();
        let g = gpu.index();
        let buffer = view.task_buffer(gpu);
        let mut best_free: Option<(usize, DataId)> = None; // (np, D) with nb == 0
        let mut best_belady: Option<(usize, DataId)> = None; // furthest next use
        for d in view.resident(gpu) {
            if view.is_pinned(gpu, d) {
                continue;
            }
            let nb = buffer
                .clone()
                .filter(|&t| ts.inputs(t).binary_search(&d.0).is_ok())
                .count();
            if nb == 0 {
                let np = self.planned[g]
                    .iter()
                    .filter(|&&t| ts.inputs(t).binary_search(&d.0).is_ok())
                    .count();
                if best_free.is_none_or(|(bnp, _)| np < bnp) {
                    best_free = Some((np, d));
                }
            } else {
                // Next use position in the buffer (Belady on committed tasks).
                let next = buffer
                    .clone()
                    .position(|t| ts.inputs(t).binary_search(&d.0).is_ok())
                    .unwrap_or(usize::MAX);
                if best_belady.is_none_or(|(bn, _)| next > bn) {
                    best_belady = Some((next, d));
                }
            }
        }
        best_free.map(|(_, d)| d).or(best_belady.map(|(_, d)| d))
    }

    /// The 3inputs fallback: find the data `D` maximizing the number of
    /// free tasks that need `D` plus exactly one other unloaded data, and
    /// return one such task.
    ///
    /// Each candidate's score is read off the m1/m2 consumer counters in
    /// O(1) — a FREE consumer of `D` counts exactly when its missing-input
    /// count is 1 if `D` is already loaded/loading, or 2 if `D` is absent
    /// (then `D` itself is one of the two) — instead of a consumer walk
    /// per candidate. The candidate domain iterates the ordered
    /// `dataNotInMem` mirror, preserving the naive ascending scan order.
    fn three_inputs_pick(
        &mut self,
        ts: &TaskSet,
        view: &RuntimeView<'_>,
        gpu: GpuId,
    ) -> Option<TaskId> {
        #[cfg(feature = "naive")]
        if self.cfg.naive {
            return self.three_inputs_pick_scan(ts, view, gpu);
        }
        let g = gpu.index();
        let mut best: Option<(usize, DataId)> = None;
        let mut useful = 0usize;
        for &di in &self.not_in_mem_ids[g] {
            if let Some(cap) = self.cfg.threshold {
                if useful >= cap {
                    break;
                }
            }
            let d = DataId(di);
            let n = if view.is_resident_or_loading(gpu, d) {
                self.m1_consumers[g][di as usize]
            } else {
                self.m2_consumers[g][di as usize]
            } as usize;
            if n > 0 {
                useful += 1;
                if best.is_none_or(|(bn, _)| n > bn) {
                    best = Some((n, d));
                    if self.cfg.opti {
                        break;
                    }
                }
            }
        }
        let (_, d) = best?;
        let want = if view.is_resident_or_loading(gpu, d) {
            1
        } else {
            2
        };
        let missing = view.missing();
        let t = ts
            .consumer_ids(d)
            .find(|&t| self.task_state[t.index()] == FREE && missing.inputs(gpu, t) == want)?;
        self.take_task(ts, view, gpu, t);
        Some(t)
    }

    /// The original full-scan 3inputs fallback (the `naive` configuration).
    #[cfg(feature = "naive")]
    fn three_inputs_pick_scan(
        &mut self,
        ts: &TaskSet,
        view: &RuntimeView<'_>,
        gpu: GpuId,
    ) -> Option<TaskId> {
        let g = gpu.index();
        let mut best: Option<(usize, DataId)> = None;
        let mut useful = 0usize;
        for di in 0..ts.num_data() {
            if !self.data_not_in_mem[g][di] {
                continue;
            }
            if let Some(cap) = self.cfg.threshold {
                if useful >= cap {
                    break;
                }
            }
            let d = DataId::from_usize(di);
            let n = ts
                .consumer_ids(d)
                .filter(|&t| self.task_state[t.index()] == FREE)
                .filter(|&t| {
                    ts.input_ids(t)
                        .filter(|&i| i != d && !view.is_resident_or_loading(gpu, i))
                        .count()
                        == 1
                })
                .count();
            if n > 0 {
                useful += 1;
                if best.is_none_or(|(bn, _)| n > bn) {
                    best = Some((n, d));
                    if self.cfg.opti {
                        break;
                    }
                }
            }
        }
        let (_, d) = best?;
        let t = ts.consumer_ids(d).find(|&t| {
            self.task_state[t.index()] == FREE
                && ts
                    .input_ids(t)
                    .filter(|&i| i != d && !view.is_resident_or_loading(gpu, i))
                    .count()
                    == 1
        })?;
        self.take_task(ts, view, gpu, t);
        Some(t)
    }

    /// Allocate `t` to `gpu` outside of `plannedTasks` (fallback paths):
    /// its inputs leave `dataNotInMem_gpu` (Algorithm 5, line 13).
    fn take_task(&mut self, ts: &TaskSet, view: &RuntimeView<'_>, gpu: GpuId, t: TaskId) {
        if !self.is_naive() {
            self.contrib(ts, view, t, -1);
            self.free_tasks.remove(t.index());
        }
        self.task_state[t.index()] = TAKEN;
        self.unallocated -= 1;
        for d in ts.input_ids(t) {
            self.set_not_in_mem(gpu.index(), d.0, false);
        }
    }

    /// Send `t` back to FREE (an eviction or a failure released it, or
    /// it arrived): it rejoins the random draw and adds its `n_free`
    /// contribution. `planned_on` names the GPU whose `planned_uses`
    /// still count it.
    fn release(
        &mut self,
        ts: &TaskSet,
        view: &RuntimeView<'_>,
        t: TaskId,
        planned_on: Option<usize>,
    ) {
        self.task_state[t.index()] = FREE;
        self.unallocated += 1;
        if self.is_naive() {
            return; // the naive scans read `task_state` live
        }
        self.free_tasks.insert(t.index());
        if let Some(g) = planned_on {
            for &i in ts.inputs(t) {
                self.planned_uses[g][i as usize] -= 1;
            }
        }
        self.contrib(ts, view, t, 1);
    }

    /// Number of tasks not yet completed (planned or not).
    pub fn remaining(&self) -> usize {
        self.unfinished
    }

    /// A uniformly random unallocated task: one RNG draw, then the n-th
    /// FREE task in ascending id order (Fenwick select instead of the
    /// naive O(m) state scan).
    fn random_task(&mut self) -> Option<TaskId> {
        if self.unallocated == 0 {
            return None;
        }
        let nth = self.rng.random_range(0..self.unallocated);
        #[cfg(feature = "naive")]
        if self.cfg.naive {
            let mut seen = 0;
            for (i, &s) in self.task_state.iter().enumerate() {
                if s == FREE {
                    if seen == nth {
                        return Some(TaskId::from_usize(i));
                    }
                    seen += 1;
                }
            }
            return None;
        }
        Some(TaskId::from_usize(self.free_tasks.select(nth as u32)))
    }
}

impl DartsScheduler {
    /// Lay out the per-GPU state for `k` GPUs. In `batch` every task
    /// starts FREE; a stream starts with every task PENDING and every
    /// data-driven counter at zero.
    fn lay_out(&mut self, ts: &TaskSet, k: usize, batch: bool) {
        let (nd, m) = (ts.num_data(), ts.num_tasks());
        self.data_not_in_mem = vec![vec![true; nd]; k];
        self.planned = vec![VecDeque::new(); k];
        self.task_state = vec![if batch { FREE } else { PENDING }; m];
        self.unallocated = if batch { m } else { 0 };
        self.unfinished = m;
        if self.is_naive() {
            return;
        }
        // Initially nothing is resident anywhere, so a FREE task's missing
        // set is its whole input list: only single-input tasks contribute
        // to `n_free`, and a task's missing count is its input count.
        let mut n_free0 = vec![0u32; nd];
        let mut m1 = vec![0u32; nd];
        let mut m2 = vec![0u32; nd];
        if batch {
            for t in ts.tasks() {
                let ins = ts.inputs(t);
                if let [d] = ins {
                    n_free0[*d as usize] += 1;
                }
                let counts = match ins.len() {
                    1 => &mut m1,
                    2 => &mut m2,
                    _ => continue,
                };
                for &d in ins {
                    counts[d as usize] += 1;
                }
            }
        }
        let ordered = self.cfg.opti || self.cfg.threshold.is_some();
        let mut useful0 = UsefulIndex::new(nd, ordered);
        for (d, &n) in n_free0.iter().enumerate() {
            if n > 0 {
                useful0.insert(d as u32, n);
            }
        }
        self.n_free = vec![n_free0; k];
        self.useful = vec![useful0; k];
        if self.cfg.three_inputs {
            self.not_in_mem_ids = vec![(0..nd as u32).collect::<BTreeSet<u32>>(); k];
            self.m1_consumers = vec![m1; k];
            self.m2_consumers = vec![m2; k];
        } else {
            self.not_in_mem_ids = vec![BTreeSet::new(); k];
            self.m1_consumers = Vec::new();
            self.m2_consumers = Vec::new();
        }
        self.planned_uses = vec![vec![0u32; nd]; k];
        if batch {
            self.n_unprocessed = (0..nd)
                .map(|d| ts.consumers(DataId::from_usize(d)).len() as u32)
                .collect();
            self.free_tasks = FenwickSet::full(m);
        } else {
            self.n_unprocessed = vec![0; nd];
            self.free_tasks = FenwickSet::empty(m);
        }
        self.cv_stamp = vec![0; nd];
        self.cv_first = vec![0; nd];
        self.cv_epoch = 0;
    }

    /// The actual pop logic ([`Scheduler::pop_task`] wraps it with the
    /// post-decision gauge emission).
    fn pop_task_inner(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let ts = view.task_set();
        let g = gpu.index();
        if let Some(t) = self.planned[g].pop_front() {
            self.on_planned_pop(ts, g, t);
            return Some(t);
        }
        if self.refill(ts, view, gpu) {
            let t = self.planned[g].pop_front();
            if let Some(t) = t {
                self.on_planned_pop(ts, g, t);
            }
            return t;
        }
        // No data frees a task (e.g. the very beginning of the run).
        if self.cfg.three_inputs {
            if let Some(t) = self.three_inputs_pick(ts, view, gpu) {
                return Some(t);
            }
        }
        let t = self.random_task()?;
        self.take_task(ts, view, gpu, t);
        Some(t)
    }
}

impl Scheduler for DartsScheduler {
    fn name(&self) -> String {
        let mut name = String::from("DARTS");
        if self.cfg.eviction == DartsEviction::Luf {
            name.push_str("+LUF");
        }
        if self.cfg.opti {
            name.push_str("+OPTI");
        }
        if self.cfg.threshold.is_some() {
            name.push_str("+threshold");
        }
        if self.cfg.three_inputs {
            name.push_str("-3inputs");
        }
        name
    }

    fn hooks(&self) -> Hooks {
        Hooks::ALL
    }

    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.lay_out(ts, spec.num_gpus, true);
    }

    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        // Every task starts PENDING and every data-driven counter at
        // zero: the horizon is empty until arrivals release tasks through
        // `on_task_arrival`.
        self.lay_out(ts, spec.num_gpus, false);
    }

    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        // Mirrors the eviction-release path: the task becomes visible to
        // the refill (FREE), joins the random-draw set, and each input
        // gains an unprocessed consumer and the task's `n_free`
        // contribution. With every arrival at t = 0 this rebuilds exactly
        // the `prepare` state before the first pop, which is what makes
        // the t = 0 stream run decision-equivalent to batch.
        debug_assert_eq!(self.task_state[task.index()], PENDING);
        let ts = view.task_set();
        if !self.is_naive() {
            for &d in ts.inputs(task) {
                self.n_unprocessed[d as usize] += 1;
            }
        }
        self.release(ts, view, task, None);
    }

    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let t = self.pop_task_inner(gpu, view);
        if let Some(p) = &self.probe {
            // DARTS's decision state, after the pop: how many tasks are
            // still unallocated (the paper's nbFreeTasks pool) and how
            // deep this GPU's planned queue is.
            p.emit(ObsEvent::Gauge {
                t: view.now(),
                gpu: None,
                kind: GaugeKind::NbFreeTasks,
                value: self.unallocated as f64,
            });
            p.emit(ObsEvent::Gauge {
                t: view.now(),
                gpu: Some(gpu.0),
                kind: GaugeKind::ReadyQueueDepth,
                value: self.planned[gpu.index()].len() as f64,
            });
        }
        t
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.probe = Some(probe);
    }

    fn choose_victim(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        if self.cfg.eviction != DartsEviction::Luf {
            return None; // defer to the runtime's LRU
        }
        #[cfg(feature = "naive")]
        if self.cfg.naive {
            return self.choose_victim_scan(gpu, view);
        }
        let ts = view.task_set();
        let g = gpu.index();
        let buffer = view.task_buffer(gpu);

        // nb(D): uses in taskBuffer; np(D): uses in plannedTasks. One pass
        // over the buffer stamps each input data with its first-use
        // position, so the resident walk tests nb(D) > 0 and reads the
        // next use in O(1) — instead of re-scanning the buffer once per
        // resident item. np is read off the planned-use counters.
        self.cv_epoch += 1;
        let epoch = self.cv_epoch;
        for (pos, t) in buffer.enumerate() {
            for &i in ts.inputs(t) {
                let i = i as usize;
                if self.cv_stamp[i] != epoch {
                    self.cv_stamp[i] = epoch;
                    self.cv_first[i] = pos as u32;
                }
            }
        }

        let mut best_free: Option<(usize, DataId)> = None; // (np, D) with nb == 0
        let mut best_belady: Option<(usize, DataId)> = None; // furthest next use
        for d in view.resident(gpu) {
            if view.is_pinned(gpu, d) {
                continue;
            }
            if self.cv_stamp[d.index()] != epoch {
                let np = self.planned_uses[g][d.index()] as usize;
                if best_free.is_none_or(|(bnp, _)| np < bnp) {
                    best_free = Some((np, d));
                }
            } else {
                // Next use position in the buffer (Belady on committed tasks).
                let next = self.cv_first[d.index()] as usize;
                if best_belady.is_none_or(|(bn, _)| next > bn) {
                    best_belady = Some((next, d));
                }
            }
        }
        best_free.map(|(_, d)| d).or(best_belady.map(|(_, d)| d))
    }

    fn on_task_complete(&mut self, _gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        if self.task_state[task.index()] == DONE {
            return;
        }
        if !self.is_naive() {
            // Tasks only complete after being popped, so no n_free
            // contribution to withdraw here (TAKEN tasks have none).
            debug_assert_eq!(self.task_state[task.index()], TAKEN);
            let ts = view.task_set();
            for &d in ts.inputs(task) {
                self.n_unprocessed[d as usize] -= 1;
            }
        }
        self.task_state[task.index()] = DONE;
        self.unfinished -= 1;
    }

    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        if self.is_naive() {
            return; // the naive scans read residency live
        }
        let ts = view.task_set();
        let g = gpu.index();
        // The missing sets of `data`'s consumers shrank on `g` (the
        // engine's counters already reflect it); re-aim their
        // contributions.
        let missing = view.missing();
        for t in ts.consumer_ids(data) {
            if self.task_state[t.index()] != FREE {
                continue;
            }
            let m = missing.inputs(gpu, t);
            match m {
                // 1 → 0 missing: was counting towards `data` alone, now
                // towards every input (the count on `data` is unchanged).
                0 => {
                    for &i in ts.inputs(t) {
                        if i != data.0 {
                            self.bump_n_free(g, i, 1);
                        }
                    }
                }
                // 2 → 1 missing: starts counting towards its sole missing.
                1 => {
                    let sole = missing.sole_input(gpu, t).expect("one missing input");
                    self.bump_n_free(g, sole.0, 1);
                }
                _ => {}
            }
            if self.cfg.three_inputs {
                // Keep the m1/m2 consumer counts in step with the m+1 → m
                // transition.
                match m {
                    0 => {
                        for &i in ts.inputs(t) {
                            self.m1_consumers[g][i as usize] -= 1;
                        }
                    }
                    1 => {
                        for &i in ts.inputs(t) {
                            self.m2_consumers[g][i as usize] -= 1;
                            self.m1_consumers[g][i as usize] += 1;
                        }
                    }
                    2 => {
                        for &i in ts.inputs(t) {
                            self.m2_consumers[g][i as usize] += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, _view: &RuntimeView<'_>) {
        // The data is now in memory whatever the reason it was fetched.
        // Residency-wise nothing changes for the decision rules (Loading
        // already counted), so only the belief flag moves.
        self.set_not_in_mem(gpu.index(), data.0, false);
    }

    fn on_data_evicted(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        let ts = view.task_set();
        let g = gpu.index();
        if !self.is_naive() {
            // The missing sets of `data`'s consumers grew on `g`.
            let missing = view.missing();
            for t in ts.consumer_ids(data) {
                if self.task_state[t.index()] != FREE {
                    continue;
                }
                let m = missing.inputs(gpu, t);
                match m {
                    // 0 → 1 missing: was counting towards every input, now
                    // towards `data` alone.
                    1 => {
                        for &i in ts.inputs(t) {
                            if i != data.0 {
                                self.bump_n_free(g, i, -1);
                            }
                        }
                    }
                    // 1 → 2 missing: stops counting towards the formerly
                    // sole missing input.
                    2 => {
                        let partner = missing
                            .pair_partner(gpu, t, data)
                            .expect("two missing inputs");
                        self.bump_n_free(g, partner.0, -1);
                    }
                    _ => {}
                }
                if self.cfg.three_inputs {
                    // Keep the m1/m2 consumer counts in step with the
                    // m-1 → m transition.
                    match m {
                        1 => {
                            for &i in ts.inputs(t) {
                                self.m1_consumers[g][i as usize] += 1;
                            }
                        }
                        2 => {
                            for &i in ts.inputs(t) {
                                self.m1_consumers[g][i as usize] -= 1;
                                self.m2_consumers[g][i as usize] += 1;
                            }
                        }
                        3 => {
                            for &i in ts.inputs(t) {
                                self.m2_consumers[g][i as usize] -= 1;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        self.set_not_in_mem(g, data.0, true);
        // Algorithm 6, line 8: release planned tasks that depended on the
        // evicted data so they can be re-planned (here or elsewhere).
        let dependents: Vec<TaskId> = self.planned[g]
            .iter()
            .copied()
            .filter(|&t| ts.inputs(t).binary_search(&data.0).is_ok())
            .collect();
        if !dependents.is_empty() {
            self.planned[g].retain(|t| !dependents.contains(t));
            for t in dependents {
                debug_assert_eq!(self.task_state[t.index()], TAKEN);
                self.release(ts, view, t, Some(g));
            }
        }
    }

    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        // Fail-stop recovery mirrors the eviction-release path: every task
        // committed to the dead GPU reverts to FREE so the per-GPU
        // counters (`n_free`, `planned_uses`, the Fenwick draw set) see it
        // again and the survivors re-plan it.
        let ts = view.task_set();
        let g = gpu.index();
        // Unserved planned tasks: still counted in `planned_uses[g]`.
        for t in std::mem::take(&mut self.planned[g]) {
            debug_assert_eq!(self.task_state[t.index()], TAKEN);
            self.release(ts, view, t, Some(g));
        }
        // Pipelined tasks: `on_planned_pop` already dropped their
        // `planned_uses` when the worker popped them, so only the state
        // and the free-task contribution come back.
        for &t in lost {
            debug_assert_eq!(self.task_state[t.index()], TAKEN);
            self.release(ts, view, t, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::figure1_example;
    use memsched_platform::run;
    use memsched_workloads::{gemm_2d, gemm_2d_random, gemm_3d};

    #[test]
    fn names_encode_variants() {
        assert_eq!(DartsScheduler::new(DartsConfig::lru()).name(), "DARTS");
        assert_eq!(DartsScheduler::new(DartsConfig::luf()).name(), "DARTS+LUF");
        assert_eq!(
            DartsScheduler::new(DartsConfig::luf().with_opti().with_three_inputs()).name(),
            "DARTS+LUF+OPTI-3inputs"
        );
        assert_eq!(
            DartsScheduler::new(DartsConfig::luf().with_threshold(10)).name(),
            "DARTS+LUF+threshold"
        );
    }

    #[test]
    fn completes_figure1_with_tight_memory() {
        let ts = figure1_example();
        let spec = PlatformSpec::v100(1).with_memory(2).with_pipeline_depth(2);
        let mut s = DartsScheduler::new(DartsConfig::luf());
        let report = run(&ts, &spec, &mut s).unwrap();
        assert_eq!(report.per_gpu[0].tasks, 9);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn near_optimal_loads_when_memory_fits() {
        let ts = gemm_2d(6);
        let spec = PlatformSpec::v100(1);
        let mut s = DartsScheduler::new(DartsConfig::luf());
        let report = run(&ts, &spec, &mut s).unwrap();
        assert_eq!(report.total_loads, 12, "each data loaded exactly once");
    }

    #[test]
    fn luf_no_worse_than_lru_under_pressure() {
        let ts = gemm_2d(10);
        let item = ts.data_size(DataId(0));
        let spec = PlatformSpec::v100(1).with_memory(6 * item);
        let mut lru = DartsScheduler::new(DartsConfig::lru());
        let mut luf = DartsScheduler::new(DartsConfig::luf());
        let loads_lru = run(&ts, &spec, &mut lru).unwrap().total_loads;
        let loads_luf = run(&ts, &spec, &mut luf).unwrap().total_loads;
        assert!(loads_luf <= loads_lru, "LUF {loads_luf} vs LRU {loads_lru}");
    }

    #[test]
    fn beats_eager_on_randomized_order() {
        // The headline Figure 9 effect at miniature scale: randomized
        // submission order devastates order-dependent schedulers but not
        // DARTS, which picks its own data-driven order.
        let ts = gemm_2d_random(10, 3);
        let item = ts.data_size(DataId(0));
        let spec = PlatformSpec::v100(2).with_memory(6 * item);
        let mut darts = DartsScheduler::new(DartsConfig::luf());
        let mut eager = crate::eager::EagerScheduler::new();
        let darts_loads = run(&ts, &spec, &mut darts).unwrap().total_loads;
        let eager_loads = run(&ts, &spec, &mut eager).unwrap().total_loads;
        assert!(
            darts_loads < eager_loads,
            "DARTS {darts_loads} vs EAGER {eager_loads}"
        );
    }

    #[test]
    fn multi_gpu_splits_work_without_conflicts() {
        let ts = gemm_2d(8);
        let spec = PlatformSpec::v100(2);
        let mut s = DartsScheduler::new(DartsConfig::luf());
        let report = run(&ts, &spec, &mut s).unwrap();
        let total: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
        assert_eq!(total, 64);
        assert!(
            report.per_gpu.iter().all(|g| g.tasks > 10),
            "both GPUs work"
        );
    }

    #[test]
    fn three_inputs_handles_3d_product() {
        let ts = gemm_3d(4);
        let item = ts.data_size(DataId(0));
        let spec = PlatformSpec::v100(2).with_memory(8 * item);
        let mut s = DartsScheduler::new(DartsConfig::luf().with_three_inputs());
        let report = run(&ts, &spec, &mut s).unwrap();
        let total: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn opti_matches_exhaustive_completion() {
        let ts = gemm_2d(8);
        let item = ts.data_size(DataId(0));
        let spec = PlatformSpec::v100(1).with_memory(6 * item);
        let mut opti = DartsScheduler::new(DartsConfig::luf().with_opti());
        let report = run(&ts, &spec, &mut opti).unwrap();
        assert_eq!(report.per_gpu[0].tasks, 64);
    }

    #[test]
    fn threshold_still_completes() {
        let ts = gemm_2d(8);
        let item = ts.data_size(DataId(0));
        let spec = PlatformSpec::v100(1).with_memory(6 * item);
        let mut s = DartsScheduler::new(DartsConfig::luf().with_threshold(3));
        let report = run(&ts, &spec, &mut s).unwrap();
        assert_eq!(report.per_gpu[0].tasks, 64);
    }

    #[test]
    fn deterministic_per_seed() {
        let ts = gemm_2d(6);
        let spec = PlatformSpec::v100(2);
        let run1 = run(
            &ts,
            &spec,
            &mut DartsScheduler::new(DartsConfig::luf().with_seed(5)),
        )
        .unwrap();
        let run2 = run(
            &ts,
            &spec,
            &mut DartsScheduler::new(DartsConfig::luf().with_seed(5)),
        )
        .unwrap();
        assert_eq!(run1.makespan, run2.makespan);
        assert_eq!(run1.total_loads, run2.total_loads);
    }

    #[test]
    fn fenwick_select_matches_linear_scan() {
        let mut f = FenwickSet::full(10);
        f.remove(0);
        f.remove(4);
        f.remove(9);
        let members: Vec<usize> = vec![1, 2, 3, 5, 6, 7, 8];
        for (k, &m) in members.iter().enumerate() {
            assert_eq!(f.select(k as u32), m);
        }
        f.insert(4);
        assert_eq!(f.select(3), 4);
    }

    #[test]
    fn useful_index_tracks_argmax_under_churn() {
        let mut u = UsefulIndex::new(10, true);
        let mut tie = Vec::new();
        u.insert(3, 1);
        u.insert(7, 2);
        u.insert(1, 2);
        assert_eq!(u.max_n, 2);
        u.argmax_sorted(&mut tie);
        assert_eq!(tie, vec![1, 7], "argmax tie set in ascending id order");
        u.reposition(3, 1, 3);
        assert_eq!(u.max_n, 3);
        u.argmax_sorted(&mut tie);
        assert_eq!(tie, vec![3]);
        u.remove(3, 3);
        assert_eq!(u.max_n, 2);
        u.reposition(7, 2, 0);
        u.reposition(1, 2, 1);
        assert_eq!(u.max_n, 1);
        u.argmax_sorted(&mut tie);
        assert_eq!(tie, vec![1]);
        assert_eq!(u.all.iter().copied().collect::<Vec<_>>(), vec![1]);
        u.remove(1, 1);
        assert!(u.is_empty());
    }
}
