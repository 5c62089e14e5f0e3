//! HFP and mHFP — Hierarchical Fair Packing and its multi-GPU extension
//! (Algorithm 4, §IV-C).
//!
//! HFP gathers tasks that share many inputs into *packages* whose combined
//! input footprint fits in GPU memory, so that once a package's inputs are
//! loaded all its tasks run without further transfers. Packages are then
//! merged again by affinity (ignoring the memory bound) until one list per
//! GPU remains; `L_avg` rebalancing moves tail tasks from the heaviest to
//! the lightest package; Ready + stealing run at runtime.
//!
//! The paper's packing is the quadratic greedy procedure: each merge round
//! scans every package and recomputes `shared_bytes` against every other —
//! its large scheduling time on big working sets is itself one of the
//! published findings (Figures 3 and 5). That reference implementation is
//! kept compilable behind the `naive` cargo feature and runtime-selected
//! with [`PackConfig::with_naive`] (the figure harness exposes it as
//! `--paper-timing`), so the published slowness stays reproducible.
//!
//! The default packing produces **byte-identical package lists** from
//! indexed state instead of scans (see `tests/differential_naive.rs` for
//! the proptest proof):
//!
//! * a data → package inverted index ([`PackState::owners`]) so the
//!   best-affinity search only visits packages sharing at least one input
//!   with the selected package, via shared-byte accumulators instead of
//!   pairwise merge-joins;
//! * a size-bucket queue ([`SizeQueue`]) serving the "smallest (unfrozen)
//!   package, lowest slot" selection without a full scan;
//! * `input_bytes` of a merge computed as `p + q − shared` instead of
//!   re-summing `data_size` over the whole union.

use crate::stealing::StealingQueues;
use memsched_model::{DataId, GpuId, TaskId, TaskSet};
use memsched_platform::{Hooks, PlatformSpec, Probe, RuntimeView, Scheduler};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A package's sorted input-id union. Singleton packages — every package
/// at the start of packing, i.e. O(n) of them — borrow their task's row
/// of the [`TaskSet`] CSR input slab instead of cloning it; only merged
/// packages own a materialized union.
#[derive(Debug, Default)]
enum InputList {
    /// The input row of a single task, resolved through the slab.
    Task(TaskId),
    /// A materialized sorted union (post-merge).
    Owned(Vec<u32>),
    /// Placeholder while a union is being built (`mem::take`).
    #[default]
    Empty,
}

impl InputList {
    #[inline]
    fn as_slice<'a>(&'a self, ts: &'a TaskSet) -> &'a [u32] {
        match self {
            InputList::Task(t) => ts.inputs(*t),
            InputList::Owned(v) => v,
            InputList::Empty => &[],
        }
    }

    /// Recover the owned buffer, if any, for recycling.
    #[inline]
    fn into_buffer(self) -> Option<Vec<u32>> {
        match self {
            InputList::Owned(v) => Some(v),
            _ => None,
        }
    }
}

/// One package: an ordered task list plus its input footprint.
#[derive(Debug)]
struct Package {
    tasks: Vec<TaskId>,
    /// Sorted union of input data ids (slab-backed for singletons).
    inputs: InputList,
    /// Total input bytes.
    input_bytes: u64,
    /// Total flops (the "load" of Algorithm 4).
    load: f64,
    /// Phase-1 freeze flag: no memory-respecting merge exists.
    frozen: bool,
}

impl Package {
    fn of_task(ts: &TaskSet, t: TaskId) -> Self {
        Self {
            tasks: vec![t],
            inputs: InputList::Task(t),
            input_bytes: ts.task_footprint(t),
            load: ts.flops(t),
            frozen: false,
        }
    }
}

/// Bytes of shared inputs between two sorted input lists.
#[cfg(any(feature = "naive", test))]
fn shared_bytes(ts: &TaskSet, a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut s) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                s += ts.data_size(DataId(a[i]));
                i += 1;
                j += 1;
            }
        }
    }
    s
}

/// Sorted union of two sorted id lists.
#[cfg(any(feature = "naive", test))]
fn union_inputs(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
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
    out
}

/// Configuration of [`pack_with`].
#[derive(Clone, Debug)]
pub struct PackConfig {
    /// Phase-1 memory bound in bytes (per-GPU capacity).
    pub memory: u64,
    /// Number of task lists to produce (one per GPU).
    pub k: usize,
    /// Run the original quadratic scans instead of the indexed fast path.
    /// Decisions are identical either way; only the wall time differs.
    #[cfg(feature = "naive")]
    naive: bool,
}

impl PackConfig {
    /// Fast indexed packing with the given memory bound and list count.
    pub fn new(memory: u64, k: usize) -> Self {
        Self {
            memory,
            k,
            #[cfg(feature = "naive")]
            naive: false,
        }
    }

    /// Select the original full-scan packing (the paper's measured
    /// implementation). The produced lists are byte-identical to the
    /// indexed ones; only `prepare` wall time changes.
    #[cfg(feature = "naive")]
    pub fn with_naive(mut self) -> Self {
        self.naive = true;
        self
    }
}

/// Run the two HFP packing phases plus the `L_avg` balancing, returning
/// `k` ordered task lists.
pub fn pack(ts: &TaskSet, memory: u64, k: usize) -> Vec<Vec<TaskId>> {
    pack_with(ts, &PackConfig::new(memory, k))
}

/// As [`pack`], with an explicit [`PackConfig`] (implementation select).
pub fn pack_with(ts: &TaskSet, config: &PackConfig) -> Vec<Vec<TaskId>> {
    #[cfg(feature = "naive")]
    if config.naive {
        return pack_naive(ts, config.memory, config.k);
    }
    pack_indexed(ts, config.memory, config.k)
}

/// As [`pack_with`], restricted to the given `tasks` — the online mode
/// re-packs the visible horizon with this. Passing every task in id order
/// reproduces [`pack_with`] exactly (the packing only ever looks at the
/// tasks it is given), which is what makes a t = 0 stream run
/// decision-equivalent to batch. Always uses the indexed fast path: the
/// `naive` timing mode exists only to reproduce the paper's batch
/// `prepare` wall time.
pub fn pack_subset(ts: &TaskSet, config: &PackConfig, tasks: &[TaskId]) -> Vec<Vec<TaskId>> {
    let k = config.k.max(1);
    let mut state = PackState::of_tasks(ts, tasks.iter().copied());
    state.phase1(config.memory, k);
    state.phase2(k);
    let mut packages = state.packages;
    balance(ts, &mut packages, k);
    finish(packages, k)
}

// ---------------------------------------------------------------------------
// Indexed fast path
// ---------------------------------------------------------------------------

/// Lazy-deletion min-heap over `(size, slot)` keys serving the naive
/// `(tasks.len(), index)` min-scan — "smallest package, lowest slot" —
/// without rescanning. Entries are never removed eagerly: a key is *valid*
/// iff the package currently occupying `slot` has exactly `size` tasks
/// (and is eligible for the phase), which fully describes the occupant
/// regardless of which package originally pushed the key. A new key is
/// pushed whenever a package's size or slot changes, so every eligible
/// package always has its current key queued; stale keys are popped on
/// sight during peek. All operations are allocation-free after warm-up.
#[derive(Debug, Default)]
struct SizeQueue {
    heap: BinaryHeap<Reverse<(u32, u32)>>,
}

impl SizeQueue {
    fn push(&mut self, size: usize, slot: u32) {
        self.heap.push(Reverse((size as u32, slot)));
    }
}

/// The indexed packing state. Packages live in `packages` with exactly
/// the naive algorithm's slot semantics (`swap_remove` on merge), so slot
/// order — which the naive tie-breaks observe — evolves identically; on
/// top of that, every package carries a stable id (its initial slot) that
/// the inverted index and the affinity accumulator are keyed by, so
/// `swap_remove` renames cost O(1) instead of O(degree).
struct PackState<'a> {
    ts: &'a TaskSet,
    packages: Vec<Package>,
    /// Stable id of the package occupying each slot (parallel to
    /// `packages`, maintained with the same `swap_remove`s).
    id_of_slot: Vec<u32>,
    /// Current slot of each stable id; `u32::MAX` once merged away.
    slot_of_id: Vec<u32>,
    /// Inverted index: data id → stable ids of the packages whose input
    /// set contains it.
    owners: Vec<Vec<u32>>,
    /// Shared-byte accumulator, keyed by stable id, describing the package
    /// `acc_for`: `acc[q] = shared_bytes(acc_for, q)` for every alive
    /// `q ≠ acc_for` (entries for `acc_for` itself and for dead ids may
    /// hold garbage — readers filter by slot). Non-zero entries are always
    /// recorded in `acc_candidates`, which doubles as the reset list: a
    /// rebuild zeroes exactly the previously-touched entries instead of
    /// keeping a generation stamp next to every value. Rebuilt from the
    /// index whenever the described package changed (a merge invalidates
    /// it).
    acc: Vec<u64>,
    /// Stable ids with possibly non-zero `acc` (the packages sharing ≥ 1
    /// input with `acc_for`; may contain ids that died in later merges —
    /// filtered on read).
    acc_candidates: Vec<u32>,
    acc_for: Option<u32>,
    /// Phase queue: unfrozen packages in phase 1, all packages in phase 2.
    queue: SizeQueue,
    queue_includes_frozen: bool,
    /// Reusable union buffer for `merge` (swapped with the merged
    /// package's input list, so steady-state merging never allocates).
    scratch: Vec<u32>,
}

impl<'a> PackState<'a> {
    fn new(ts: &'a TaskSet) -> Self {
        Self::of_tasks(ts, ts.tasks())
    }

    /// Packing state over an arbitrary task subset; slot order (and with
    /// it every tie-break) follows the iteration order.
    fn of_tasks(ts: &'a TaskSet, tasks: impl Iterator<Item = TaskId>) -> Self {
        let packages: Vec<Package> = tasks.map(|t| Package::of_task(ts, t)).collect();
        let n = packages.len();
        let mut owners: Vec<Vec<u32>> = (0..ts.num_data())
            .map(|d| Vec::with_capacity(ts.consumers(DataId(d as u32)).len()))
            .collect();
        let mut queue = SizeQueue {
            heap: BinaryHeap::with_capacity(4 * n + 4),
        };
        for (slot, p) in packages.iter().enumerate() {
            for &d in p.inputs.as_slice(ts) {
                owners[d as usize].push(slot as u32);
            }
            queue.push(p.tasks.len(), slot as u32);
        }
        Self {
            ts,
            packages,
            id_of_slot: (0..n as u32).collect(),
            slot_of_id: (0..n as u32).collect(),
            owners,
            acc: vec![0; n],
            acc_candidates: Vec::new(),
            acc_for: None,
            queue,
            queue_includes_frozen: false,
            scratch: Vec::new(),
        }
    }

    /// The smallest eligible `(size, slot)` — the naive min-scan's pick —
    /// discarding stale heap keys on the way down.
    fn peek_smallest(&mut self) -> Option<(usize, u32)> {
        while let Some(&Reverse((size, slot))) = self.queue.heap.peek() {
            if let Some(p) = self.packages.get(slot as usize) {
                if p.tasks.len() == size as usize && (self.queue_includes_frozen || !p.frozen) {
                    return Some((size as usize, slot));
                }
            }
            self.queue.heap.pop();
        }
        None
    }

    /// Make the accumulator describe package `p_id`: a no-op when it
    /// already does (consecutive rounds reselecting the same package keep
    /// their accumulator across merges), an index walk over `p`'s inputs
    /// otherwise.
    fn ensure_acc(&mut self, p_id: u32) {
        if self.acc_for == Some(p_id) {
            return;
        }
        // Zero exactly the entries the previous accumulator touched, so
        // `acc[x] != 0` implies `x` is a current candidate.
        for &c in &self.acc_candidates {
            self.acc[c as usize] = 0;
        }
        self.acc_candidates.clear();
        self.acc_for = Some(p_id);
        let p_slot = self.slot_of_id[p_id as usize] as usize;
        // Walk the inverted index: only packages sharing ≥ 1 input with
        // `p` are ever touched — the quadratic all-pairs scan is gone.
        // `p` itself accumulates too (cheaper than a branch per visit);
        // readers skip it by slot.
        let ts = self.ts;
        let inputs = std::mem::take(&mut self.packages[p_slot].inputs);
        for &d in inputs.as_slice(ts) {
            let size = ts.data_size(DataId(d));
            for &o in &self.owners[d as usize] {
                let a = &mut self.acc[o as usize];
                if *a == 0 {
                    self.acc_candidates.push(o);
                }
                *a += size;
            }
        }
        self.packages[p_slot].inputs = inputs;
    }

    /// The merge partner the naive scan would pick for `p_id`:
    /// maximum shared bytes, ties to the lowest slot, restricted to
    /// memory-feasible unions when `memory` is given; when no candidate
    /// shares anything (or none feasibly), the lowest feasible slot with
    /// zero sharing — exactly the naive ascending scan's strict-`>`
    /// semantics. Returns the winning slot and its shared bytes.
    fn best_partner(&mut self, p_id: u32, memory: Option<u64>) -> Option<(u32, u64)> {
        self.ensure_acc(p_id);
        let p_slot = self.slot_of_id[p_id as usize];
        let p_bytes = self.packages[p_slot as usize].input_bytes;
        let mut best: Option<(u64, u32)> = None; // (shared, slot), shared > 0
        for i in 0..self.acc_candidates.len() {
            let o = self.acc_candidates[i];
            let slot = self.slot_of_id[o as usize];
            if slot == u32::MAX || slot == p_slot {
                continue; // merged away since recorded, or `p` itself
            }
            let shared = self.acc[o as usize];
            if shared == 0 {
                continue; // zero-size data only: competes in the fallback
            }
            if let Some(mem) = memory {
                let union_bytes = p_bytes + self.packages[slot as usize].input_bytes - shared;
                if union_bytes > mem {
                    continue;
                }
            }
            if best.is_none_or(|(bs, bslot)| shared > bs || (shared == bs && slot < bslot)) {
                best = Some((shared, slot));
            }
        }
        if let Some((shared, slot)) = best {
            return Some((slot, shared));
        }
        // Zero-shared fallback: the naive scan keeps the first (lowest
        // slot) feasible candidate when nothing shares. Sharing-but-
        // infeasible candidates were already rejected above and must be
        // skipped here too (`acc > 0` means exactly "shares bytes with
        // `p`" thanks to the candidates-list reset).
        for slot in 0..self.packages.len() as u32 {
            if slot == p_slot {
                continue;
            }
            let o = self.id_of_slot[slot as usize] as usize;
            if self.acc[o] > 0 {
                continue; // sharing candidate, already rejected as infeasible
            }
            if let Some(mem) = memory {
                if p_bytes + self.packages[slot as usize].input_bytes > mem {
                    continue;
                }
            }
            return Some((slot, 0));
        }
        None
    }

    /// Merge the package in slot `q_slot` into package `p_id`, mirroring
    /// the naive `swap_remove` slot evolution while updating the inverted
    /// index and the (still valid) accumulator incrementally. `shared` is
    /// the shared-byte value the partner search already computed.
    fn merge(&mut self, p_id: u32, q_slot: u32, shared: u64) {
        let q_id = self.id_of_slot[q_slot as usize];
        debug_assert_ne!(p_id, q_id);

        // Remove q from the slot arrays; the former last package (possibly
        // p itself) moves into q's slot, an O(1) rename thanks to the
        // stable-id indirection. Queue keys of q, of the moved package and
        // of p go stale by themselves (lazy heap); only the new keys are
        // pushed.
        let qpkg = self.packages.swap_remove(q_slot as usize);
        let dead = self.id_of_slot.swap_remove(q_slot as usize);
        debug_assert_eq!(dead, q_id);
        self.slot_of_id[q_id as usize] = u32::MAX;
        if (q_slot as usize) < self.packages.len() {
            let moved_id = self.id_of_slot[q_slot as usize];
            self.slot_of_id[moved_id as usize] = q_slot;
            if moved_id != p_id {
                self.queue
                    .push(self.packages[q_slot as usize].tasks.len(), q_slot);
            }
        }
        let p_slot = self.slot_of_id[p_id as usize] as usize;

        // Union the input lists while rewriting the inverted index: data
        // exclusive to q transfers ownership q → p; data in both just
        // loses q's ownership entry. The union is built in the reusable
        // scratch buffer and swapped in, so steady-state merging
        // allocates nothing.
        let ts = self.ts;
        let a_list = std::mem::take(&mut self.packages[p_slot].inputs);
        let b_list = qpkg.inputs;
        let a = a_list.as_slice(ts);
        let b = b_list.as_slice(ts);
        let mut union = std::mem::take(&mut self.scratch);
        union.clear();
        union.reserve(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let take_a = j == b.len() || (i < a.len() && a[i] <= b[j]);
            let take_b = i == a.len() || (j < b.len() && b[j] <= a[i]);
            if take_a && take_b {
                // In both: q's ownership entry disappears.
                let os = &mut self.owners[a[i] as usize];
                let pos = os
                    .iter()
                    .position(|&o| o == q_id)
                    .expect("q owns its input");
                os.swap_remove(pos);
                union.push(a[i]);
                i += 1;
                j += 1;
            } else if take_a {
                union.push(a[i]);
                i += 1;
            } else {
                // Exclusive to q: rename the ownership entry to p.
                let d = b[j];
                let os = &mut self.owners[d as usize];
                let pos = os
                    .iter()
                    .position(|&o| o == q_id)
                    .expect("q owns its input");
                os[pos] = p_id;
                union.push(d);
                j += 1;
            }
        }

        // Recycle whichever side owned a buffer (slab-backed singletons
        // own none); at most one survives as the next merge's scratch.
        if let Some(buf) = a_list.into_buffer().or_else(|| b_list.into_buffer()) {
            self.scratch = buf;
        }
        let ppkg = &mut self.packages[p_slot];
        ppkg.inputs = InputList::Owned(union);
        ppkg.tasks.extend_from_slice(&qpkg.tasks);
        ppkg.load += qpkg.load;
        // The union's byte total, without re-summing `data_size` over it.
        ppkg.input_bytes = ppkg.input_bytes + qpkg.input_bytes - shared;
        ppkg.frozen = false;
        self.queue.push(ppkg.tasks.len(), p_slot as u32);
        // The merge changed p's input set, so the accumulator no longer
        // describes it. Rebuilding on the (rare) rounds that reselect p is
        // cheaper than crediting every merge for a cache that phase 1
        // almost never hits — the merged package grows and stops being
        // the smallest.
        self.acc_for = None;
    }

    /// Phase 1: memory-bounded affinity merging. Repeatedly take the
    /// smallest unfrozen package and merge it with the package sharing the
    /// most input bytes, provided the union still fits in memory.
    fn phase1(&mut self, memory: u64, k: usize) {
        while self.packages.len() > k {
            let Some((_, p_slot)) = self.peek_smallest() else {
                break; // everything frozen
            };
            let p_id = self.id_of_slot[p_slot as usize];
            match self.best_partner(p_id, Some(memory)) {
                Some((q_slot, shared)) => self.merge(p_id, q_slot, shared),
                // Freezing invalidates the package's queue key in place.
                None => self.packages[p_slot as usize].frozen = true,
            }
        }
    }

    /// Phase 2: affinity merging without the memory bound, down to `k`
    /// packages, binding packages with high data affinity so they are
    /// scheduled consecutively.
    fn phase2(&mut self, k: usize) {
        // The selection now ranges over every package, frozen or not:
        // rebuild the queue accordingly.
        self.queue.heap.clear();
        self.queue_includes_frozen = true;
        for (slot, p) in self.packages.iter().enumerate() {
            self.queue.push(p.tasks.len(), slot as u32);
        }
        while self.packages.len() > k {
            let (_, p_slot) = self.peek_smallest().expect("non-empty");
            let p_id = self.id_of_slot[p_slot as usize];
            let (q_slot, shared) = self
                .best_partner(p_id, None)
                .expect("at least two packages");
            self.merge(p_id, q_slot, shared);
        }
    }
}

fn pack_indexed(ts: &TaskSet, memory: u64, k: usize) -> Vec<Vec<TaskId>> {
    let k = k.max(1);
    let mut state = PackState::new(ts);
    state.phase1(memory, k);
    state.phase2(k);
    let mut packages = state.packages;
    balance(ts, &mut packages, k);
    finish(packages, k)
}

/// Load balancing (Algorithm 4): move tail tasks of the heaviest package
/// to the lightest until no package exceeds `L_avg` (within one task's
/// worth of load — exact equality is impossible with discrete tasks).
fn balance(ts: &TaskSet, packages: &mut [Package], k: usize) {
    if k <= 1 || packages.len() != k {
        return;
    }
    let total: f64 = packages.iter().map(|p| p.load).sum();
    let avg = total / k as f64;
    let max_task_load = ts.tasks().map(|t| ts.flops(t)).fold(0.0f64, f64::max);
    for _ in 0..ts.num_tasks() {
        let mx = packages
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.load.total_cmp(&b.1.load))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mn = packages
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.load.total_cmp(&b.1.load))
            .map(|(i, _)| i)
            .expect("non-empty");
        if mx == mn || packages[mx].load <= avg + max_task_load {
            break;
        }
        let Some(t) = packages[mx].tasks.pop() else {
            break;
        };
        packages[mx].load -= ts.flops(t);
        packages[mn].tasks.push(t);
        packages[mn].load += ts.flops(t);
    }
}

fn finish(packages: Vec<Package>, k: usize) -> Vec<Vec<TaskId>> {
    let mut lists: Vec<Vec<TaskId>> = packages.into_iter().map(|p| p.tasks).collect();
    lists.resize(k, Vec::new());
    lists
}

// ---------------------------------------------------------------------------
// Naive reference (the paper's measured quadratic procedure)
// ---------------------------------------------------------------------------

/// Merge package `q` into `p` (append task list, union inputs) and remove
/// `q` from the vector — including the original O(|union|) byte re-sum
/// whose cost is part of the published finding.
#[cfg(feature = "naive")]
fn merge_naive(ts: &TaskSet, packages: &mut Vec<Package>, p: usize, q: usize) {
    debug_assert_ne!(p, q);
    let qpkg = packages.swap_remove(q);
    // swap_remove may have moved the former last package into slot q.
    let p = if p == packages.len() { q } else { p };
    let union = union_inputs(packages[p].inputs.as_slice(ts), qpkg.inputs.as_slice(ts));
    let ppkg = &mut packages[p];
    ppkg.tasks.extend_from_slice(&qpkg.tasks);
    ppkg.load += qpkg.load;
    ppkg.input_bytes = union.iter().map(|&d| ts.data_size(DataId(d))).sum();
    ppkg.inputs = InputList::Owned(union);
    ppkg.frozen = false;
}

/// The original full-scan packing: O(n²·d) per-round scans, kept as the
/// decision-equivalence reference and for `--paper-timing` reproduction.
#[cfg(feature = "naive")]
fn pack_naive(ts: &TaskSet, memory: u64, k: usize) -> Vec<Vec<TaskId>> {
    let k = k.max(1);
    let mut packages: Vec<Package> = ts.tasks().map(|t| Package::of_task(ts, t)).collect();

    // Phase 1: memory-bounded affinity merging.
    while packages.len() > k {
        let Some(p_idx) = packages
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.frozen)
            .min_by_key(|(i, p)| (p.tasks.len(), *i))
            .map(|(i, _)| i)
        else {
            break; // everything frozen
        };
        let mut best: Option<(usize, u64)> = None;
        for (q_idx, q) in packages.iter().enumerate() {
            if q_idx == p_idx {
                continue;
            }
            let shared = shared_bytes(
                ts,
                packages[p_idx].inputs.as_slice(ts),
                q.inputs.as_slice(ts),
            );
            let union_bytes = packages[p_idx].input_bytes + q.input_bytes - shared;
            if union_bytes > memory {
                continue;
            }
            if best.is_none_or(|(_, bs)| shared > bs) {
                best = Some((q_idx, shared));
            }
        }
        match best {
            Some((q_idx, _)) => merge_naive(ts, &mut packages, p_idx, q_idx),
            None => packages[p_idx].frozen = true,
        }
    }

    // Phase 2: affinity merging without the memory bound.
    while packages.len() > k {
        let p_idx = packages
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| (p.tasks.len(), *i))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut best: Option<(usize, u64)> = None;
        for (q_idx, q) in packages.iter().enumerate() {
            if q_idx == p_idx {
                continue;
            }
            let shared = shared_bytes(
                ts,
                packages[p_idx].inputs.as_slice(ts),
                q.inputs.as_slice(ts),
            );
            if best.is_none_or(|(_, bs)| shared > bs) {
                best = Some((q_idx, shared));
            }
        }
        let (q_idx, _) = best.expect("at least two packages");
        merge_naive(ts, &mut packages, p_idx, q_idx);
    }

    balance(ts, &mut packages, k);
    finish(packages, k)
}

/// The HFP / mHFP scheduler. `K = 1` gives the single-GPU HFP of the
/// earlier COLOC paper; `K > 1` adds the balancing and stealing of
/// Algorithm 4.
#[derive(Debug)]
pub struct HfpScheduler {
    steal: bool,
    queues: Option<StealingQueues>,
    /// Probe kept until `prepare` builds the queues that emit with it.
    probe: Option<Probe>,
    /// Online mode flag, set by `prepare_stream`.
    online: bool,
    /// Online mode: admitted-but-unserved tasks, in admission order.
    pending: Vec<TaskId>,
    /// Online mode: arrivals since the last packing; the next pop
    /// re-packs the whole pending horizon.
    dirty: bool,
    #[cfg(feature = "naive")]
    naive_pack: bool,
}

impl Default for HfpScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl HfpScheduler {
    /// Paper-default mHFP (Ready window, stealing enabled).
    pub fn new() -> Self {
        Self {
            steal: true,
            queues: None,
            probe: None,
            online: false,
            pending: Vec::new(),
            dirty: false,
            #[cfg(feature = "naive")]
            naive_pack: false,
        }
    }

    /// Disable stealing (ablation).
    pub fn without_stealing(mut self) -> Self {
        self.steal = false;
        self
    }

    /// Use the original quadratic packing in `prepare` (the paper's
    /// measured scheduling time — `--paper-timing` in the harness). The
    /// produced queues, and therefore every runtime decision, are
    /// identical; `name()` does not encode the mode.
    #[cfg(feature = "naive")]
    pub fn with_naive_pack(mut self) -> Self {
        self.naive_pack = true;
        self
    }

    /// Online mode: re-pack the entire pending horizon into fresh
    /// stealing queues. Dead GPUs' lists fold into the lightest survivor
    /// so every pending task stays reachable even with stealing disabled.
    fn repack(&mut self, view: &RuntimeView<'_>) {
        let ts = view.task_set();
        let spec = view.spec();
        let k = spec.num_gpus;
        // The phase-1 bound tracks the current (possibly shrunk) memory
        // of the tightest alive GPU; with no faults this is exactly
        // `spec.memory_bytes`, keeping t = 0 runs batch-identical.
        let memory = (0..k)
            .filter(|&g| view.is_alive(GpuId(g as u32)))
            .map(|g| view.capacity(GpuId(g as u32)))
            .min()
            .unwrap_or(spec.memory_bytes);
        let mut lists = pack_subset(ts, &PackConfig::new(memory, k), &self.pending);
        let alive: Vec<usize> = (0..k).filter(|&g| view.is_alive(GpuId(g as u32))).collect();
        if alive.len() < k && !alive.is_empty() {
            for g in 0..k {
                if !view.is_alive(GpuId(g as u32)) && !lists[g].is_empty() {
                    let moved = std::mem::take(&mut lists[g]);
                    let &target = alive
                        .iter()
                        .min_by_key(|&&h| (lists[h].len(), h))
                        .expect("alive is non-empty");
                    lists[target].extend(moved);
                }
            }
        }
        let mut sq = StealingQueues::new(lists, self.steal);
        if let Some(p) = &self.probe {
            sq.attach_probe(p.clone());
        }
        self.queues = Some(sq);
        self.dirty = false;
    }
}

impl Scheduler for HfpScheduler {
    fn name(&self) -> String {
        "mHFP".into()
    }

    fn hooks(&self) -> Hooks {
        Hooks::NONE
    }

    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        let config = PackConfig::new(spec.memory_bytes, spec.num_gpus);
        #[cfg(feature = "naive")]
        let config = if self.naive_pack {
            config.with_naive()
        } else {
            config
        };
        let queues = pack_with(ts, &config);
        let mut sq = StealingQueues::new(queues, self.steal);
        if let Some(p) = &self.probe {
            sq.attach_probe(p.clone());
        }
        self.queues = Some(sq);
        self.online = false;
    }

    fn prepare_stream(&mut self, _ts: &TaskSet, spec: &PlatformSpec) {
        // Start with empty queues; the first pop after each burst of
        // arrivals re-packs the pending horizon (lazy incremental HFP).
        self.online = true;
        self.pending = Vec::new();
        self.dirty = false;
        let mut sq = StealingQueues::new(vec![Vec::new(); spec.num_gpus], self.steal);
        if let Some(p) = &self.probe {
            sq.attach_probe(p.clone());
        }
        self.queues = Some(sq);
    }

    fn on_task_arrival(&mut self, task: TaskId, _view: &RuntimeView<'_>) {
        // Packing is deferred to the next pop so a burst of simultaneous
        // arrivals is packed once; with every arrival at t = 0 the first
        // pop packs the full task set exactly as the batch `prepare`.
        self.pending.push(task);
        self.dirty = true;
    }

    fn attach_probe(&mut self, probe: Probe) {
        if let Some(q) = self.queues.as_mut() {
            q.attach_probe(probe.clone());
        }
        self.probe = Some(probe);
    }

    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        if self.online && self.dirty {
            self.repack(view);
        }
        let t = self
            .queues
            .as_mut()
            .expect("prepare() must run first")
            .pop(gpu, view)?;
        if self.online {
            if let Some(pos) = self.pending.iter().position(|&p| p == t) {
                self.pending.remove(pos);
            }
        }
        Some(t)
    }

    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        if self.online {
            // The orphans rejoin the pending horizon; the dead GPU's
            // still-queued tasks are already pending, and the next pop
            // re-packs everything onto the survivors.
            self.pending.extend_from_slice(lost);
            self.dirty = true;
            return;
        }
        // The dead GPU's package tail folds into the survivors through
        // the ordinary stealing machinery.
        if let Some(q) = self.queues.as_mut() {
            q.return_tasks(gpu, lost, view);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::figure1_example;
    use memsched_platform::run;
    use memsched_workloads::gemm_2d;
    use proptest::prelude::*;

    #[test]
    fn union_and_shared_are_consistent() {
        let ts = gemm_2d(3);
        let a = vec![0u32, 2, 4];
        let b = vec![1u32, 2, 5];
        assert_eq!(union_inputs(&a, &b), vec![0, 1, 2, 4, 5]);
        let item = ts.data_size(DataId(0));
        assert_eq!(shared_bytes(&ts, &a, &b), item);
    }

    #[test]
    fn pack_single_gpu_groups_by_affinity() {
        let ts = figure1_example();
        // Memory of 3 unit data items: packages of one grid row fit.
        let lists = pack(&ts, 3, 1);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].len(), 9);
        // Consecutive tasks should mostly share data: count adjacent pairs
        // with at least one shared input.
        let adjacent_shared = lists[0]
            .windows(2)
            .filter(|w| ts.shared_inputs(w[0], w[1]) > 0)
            .count();
        assert!(adjacent_shared >= 5, "affinity order: {adjacent_shared}/8");
    }

    #[test]
    fn pack_balances_two_gpus() {
        let ts = gemm_2d(6);
        let item = ts.data_size(DataId(0));
        let lists = pack(&ts, 6 * item, 2);
        assert_eq!(lists.len(), 2);
        let (a, b) = (lists[0].len(), lists[1].len());
        assert_eq!(a + b, 36);
        assert!(a.abs_diff(b) <= 2, "balance {a} vs {b}");
    }

    #[test]
    fn packages_respect_memory_in_phase_one() {
        // With memory for 2 unit items and 2-input tasks, phase-1 packages
        // have at most 2 distinct inputs; final k-merge may exceed it.
        let ts = figure1_example();
        let lists = pack(&ts, 2, 9); // k = task count: phase 1 only
        let total: usize = lists.iter().map(Vec::len).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn phase_one_packages_fit_in_memory_with_exact_footprints() {
        // Run phase 1 alone (k = 1 forces it to merge or freeze until no
        // memory-respecting merge remains) and inspect the actual package
        // footprints: every package must fit in the bound, and the
        // incrementally-maintained `input_bytes` must equal the re-summed
        // byte total of the recorded input union.
        for (ts, memory) in [
            (figure1_example(), 3),
            (gemm_2d(5), {
                let ts = gemm_2d(5);
                4 * ts.data_size(DataId(0))
            }),
        ] {
            let mut state = PackState::new(&ts);
            state.phase1(memory, 1);
            assert!(!state.packages.is_empty());
            for p in &state.packages {
                assert!(
                    p.input_bytes <= memory,
                    "package of {} tasks overflows: {} > {memory}",
                    p.tasks.len(),
                    p.input_bytes
                );
                let inputs = p.inputs.as_slice(&ts);
                let resummed: u64 = inputs.iter().map(|&d| ts.data_size(DataId(d))).sum();
                assert_eq!(p.input_bytes, resummed, "footprint bookkeeping drifted");
                assert!(inputs.windows(2).all(|w| w[0] < w[1]), "unsorted union");
            }
            let total: usize = state.packages.iter().map(|p| p.tasks.len()).sum();
            assert_eq!(total, ts.num_tasks());
        }
    }

    #[test]
    fn runs_everything_end_to_end() {
        let ts = gemm_2d(6);
        let item = ts.data_size(DataId(0));
        let spec = PlatformSpec::v100(2).with_memory(6 * item);
        let mut sched = HfpScheduler::new();
        let report = run(&ts, &spec, &mut sched).unwrap();
        let total: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
        assert_eq!(total, 36);
    }

    #[test]
    fn beats_eager_loads_under_pressure() {
        let ts = gemm_2d(10);
        let item = ts.data_size(DataId(0));
        let spec = PlatformSpec::v100(1).with_memory(6 * item);
        let mut hfp = HfpScheduler::new();
        let mut eager = crate::eager::EagerScheduler::new();
        let hfp_loads = run(&ts, &spec, &mut hfp).unwrap().total_loads;
        let eager_loads = run(&ts, &spec, &mut eager).unwrap().total_loads;
        assert!(
            hfp_loads < eager_loads,
            "HFP {hfp_loads} vs EAGER {eager_loads}"
        );
    }

    #[test]
    fn empty_padding_when_fewer_tasks_than_gpus() {
        let mut b = memsched_model::TaskSetBuilder::new();
        let d = b.add_data(1);
        b.add_task(&[d], 1.0);
        let ts = b.build();
        let lists = pack(&ts, 10, 4);
        assert_eq!(lists.len(), 4);
        assert_eq!(lists.iter().map(Vec::len).sum::<usize>(), 1);
    }

    /// Random task sets with non-uniform data sizes, as exercised by the
    /// pack proptests below.
    fn arb_taskset() -> impl Strategy<Value = TaskSet> {
        (2usize..=10, 1usize..=18)
            .prop_flat_map(|(nd, mt)| {
                let sizes = proptest::collection::vec(1u64..=4, nd);
                let inputs =
                    proptest::collection::vec(proptest::collection::vec(0..nd as u32, 1..=3), mt);
                (sizes, inputs)
            })
            .prop_map(|(sizes, task_inputs)| {
                let mut b = memsched_model::TaskSetBuilder::new();
                let data: Vec<DataId> = sizes.iter().map(|&s| b.add_data(s)).collect();
                for ins in task_inputs {
                    let ids: Vec<DataId> = ins.iter().map(|&i| data[i as usize]).collect();
                    b.add_task(&ids, 1000.0);
                }
                b.build()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `pack` is a permutation: every task appears exactly once across
        /// the k lists, for any memory bound and list count.
        #[test]
        fn pack_is_a_permutation_of_all_tasks(
            ts in arb_taskset(),
            mem in 1u64..40,
            k in 1usize..5,
        ) {
            let lists = pack(&ts, mem, k);
            prop_assert_eq!(lists.len(), k.max(1));
            let mut seen = vec![false; ts.num_tasks()];
            for t in lists.iter().flatten() {
                prop_assert!(!seen[t.index()], "task {} packed twice", t.index());
                seen[t.index()] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "some task never packed");
        }

        /// Phase-1 packages never exceed the memory bound (checked against
        /// the exact recorded footprint, not just task counts).
        #[test]
        fn phase_one_footprints_respect_bound(
            ts in arb_taskset(),
            mem in 1u64..40,
        ) {
            let mut state = PackState::new(&ts);
            state.phase1(mem, 1);
            for p in &state.packages {
                if p.tasks.len() > 1 {
                    prop_assert!(
                        p.input_bytes <= mem,
                        "merged package footprint {} > {mem}",
                        p.input_bytes
                    );
                }
                let resummed: u64 = p
                    .inputs
                    .as_slice(&ts)
                    .iter()
                    .map(|&d| ts.data_size(DataId(d)))
                    .sum();
                prop_assert_eq!(p.input_bytes, resummed);
            }
        }
    }
}
