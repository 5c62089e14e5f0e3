//! Offline replay of a schedule under a bounded GPU memory (§III).
//!
//! Given a schedule `σ`, the replay executes the three-stage step of the
//! paper on every GPU — evict `V(k,i)`, load the missing inputs of
//! `σ(k,i)`, process the task — maintaining the live set recurrence
//!
//! ```text
//! L(k, 1) = D(σ(k,1))
//! L(k, i) = (L(k, i−1) \ V(k,i)) ∪ D(σ(k,i))
//! ```
//!
//! and counting `#Loads_k = Σ_i |D(σ(k,i)) \ L(k, i−1)|` (Obj. 2). Two
//! eviction policies are provided: **LRU** (the StarPU default used by all
//! schedulers except DARTS+LUF) and **Belady**'s offline-optimal rule
//! (evict the resident data whose next use is the furthest in the future),
//! which the paper uses to argue that only the ordering problem matters.

use crate::ids::{DataId, GpuId, TaskId};
use crate::schedule::Schedule;
use crate::taskset::TaskSet;

/// Offline eviction policy used by [`replay`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least Recently Used — evict the resident item with the oldest last use.
    Lru,
    /// Belady's rule — evict the resident item whose next use is the
    /// furthest in the future (optimal for a fixed order; the paper's
    /// reference 15).
    Belady,
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictionPolicy::Lru => write!(f, "LRU"),
            EvictionPolicy::Belady => write!(f, "Belady"),
        }
    }
}

/// Replay statistics for a single GPU.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GpuReplay {
    /// Number of host→GPU load operations.
    pub loads: u64,
    /// Bytes loaded from the host.
    pub load_bytes: u64,
    /// Number of evictions performed.
    pub evictions: u64,
    /// Peak number of simultaneously live data items.
    pub max_live_items: usize,
    /// Peak number of simultaneously live bytes.
    pub max_live_bytes: u64,
}

/// Result of replaying a full schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayReport {
    /// Per-GPU statistics.
    pub per_gpu: Vec<GpuReplay>,
}

impl ReplayReport {
    /// Obj. 2 — total number of loads over all GPUs.
    pub fn total_loads(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.loads).sum()
    }

    /// Total bytes transferred host→GPU.
    pub fn total_load_bytes(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.load_bytes).sum()
    }

    /// Total number of evictions.
    pub fn total_evictions(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.evictions).sum()
    }
}

/// Errors produced by [`replay`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A task's inputs alone exceed the memory capacity.
    TaskTooLarge {
        /// Offending task.
        task: TaskId,
        /// Its input footprint in bytes.
        footprint: u64,
        /// The per-GPU capacity in bytes.
        capacity: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::TaskTooLarge {
                task,
                footprint,
                capacity,
            } => write!(
                f,
                "task {task} needs {footprint} bytes of inputs but GPU memory is {capacity} bytes"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replay `schedule` on GPUs of `capacity_bytes` memory under `policy`,
/// returning per-GPU load/eviction statistics.
///
/// Each GPU is independent in the offline model (the shared bus only
/// matters for timing, which is the simulator's job); loads are counted
/// exactly as `#Loads_k` in §III.
pub fn replay(
    ts: &TaskSet,
    schedule: &Schedule,
    capacity_bytes: u64,
    policy: EvictionPolicy,
) -> Result<ReplayReport, ReplayError> {
    let mut per_gpu = Vec::with_capacity(schedule.num_gpus());
    for (gpu, tasks) in schedule.iter() {
        per_gpu.push(replay_gpu(ts, gpu, tasks, capacity_bytes, policy)?);
    }
    Ok(ReplayReport { per_gpu })
}

fn replay_gpu(
    ts: &TaskSet,
    _gpu: GpuId,
    tasks: &[TaskId],
    capacity: u64,
    policy: EvictionPolicy,
) -> Result<GpuReplay, ReplayError> {
    let n = ts.num_data();
    let mut resident = vec![false; n];
    let mut resident_bytes: u64 = 0;
    let mut stats = GpuReplay::default();
    let mut live_items: usize = 0;

    // LRU bookkeeping: step of last use per data item.
    let mut last_use = vec![0u64; n];
    // Belady bookkeeping: per data item, the ordered list of steps at which
    // it is used, and a cursor into that list.
    let (use_lists, mut cursors) = if policy == EvictionPolicy::Belady {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (step, &t) in tasks.iter().enumerate() {
            for &d in ts.inputs(t) {
                lists[d as usize].push(step as u32);
            }
        }
        (lists, vec![0u32; n])
    } else {
        (Vec::new(), Vec::new())
    };

    for (step, &t) in tasks.iter().enumerate() {
        let footprint = ts.task_footprint(t);
        if footprint > capacity {
            return Err(ReplayError::TaskTooLarge {
                task: t,
                footprint,
                capacity,
            });
        }

        // Bytes that must be brought in for this step.
        let missing: u64 = ts
            .input_ids(t)
            .filter(|&d| !resident[d.index()])
            .map(|d| ts.data_size(d))
            .sum();

        // Stage 1: evict V(k, i) until the missing inputs fit. The current
        // task's inputs are pinned (V(k,i) ∩ D(σ(k,i)) = ∅, §III).
        while resident_bytes + missing > capacity {
            let victim = pick_victim(
                ts,
                &resident,
                ts.inputs(t),
                policy,
                &last_use,
                &use_lists,
                &mut cursors,
                step,
            )
            .expect("memory full of pinned data despite footprint check");
            resident[victim.index()] = false;
            resident_bytes -= ts.data_size(victim);
            live_items -= 1;
            stats.evictions += 1;
        }

        // Stage 2: load missing inputs.
        for d in ts.input_ids(t) {
            if !resident[d.index()] {
                resident[d.index()] = true;
                resident_bytes += ts.data_size(d);
                live_items += 1;
                stats.loads += 1;
                stats.load_bytes += ts.data_size(d);
            }
            // Stage 3 side effect: the processing of the task touches all
            // its inputs.
            last_use[d.index()] = step as u64 + 1;
            if policy == EvictionPolicy::Belady {
                // Advance the cursor past the current step.
                let c = &mut cursors[d.index()];
                let list = &use_lists[d.index()];
                while (*c as usize) < list.len() && list[*c as usize] <= step as u32 {
                    *c += 1;
                }
            }
        }

        stats.max_live_items = stats.max_live_items.max(live_items);
        stats.max_live_bytes = stats.max_live_bytes.max(resident_bytes);
        debug_assert!(resident_bytes <= capacity, "|L(k,i)| exceeds M");
    }
    Ok(stats)
}

/// Pick the eviction victim among resident, un-pinned data.
#[allow(clippy::too_many_arguments)]
fn pick_victim(
    ts: &TaskSet,
    resident: &[bool],
    pinned: &[u32],
    policy: EvictionPolicy,
    last_use: &[u64],
    use_lists: &[Vec<u32>],
    cursors: &mut [u32],
    step: usize,
) -> Option<DataId> {
    let mut best: Option<(DataId, u64)> = None;
    for d in 0..resident.len() {
        if !resident[d] || pinned.binary_search(&(d as u32)).is_ok() {
            continue;
        }
        let key = match policy {
            // Smallest last-use step = least recently used.
            EvictionPolicy::Lru => u64::MAX - last_use[d],
            // Largest next-use step = furthest in the future (∞ if unused).
            EvictionPolicy::Belady => {
                let list = &use_lists[d];
                let c = &mut cursors[d];
                while (*c as usize) < list.len() && (list[*c as usize] as usize) < step {
                    *c += 1;
                }
                if (*c as usize) < list.len() {
                    list[*c as usize] as u64
                } else {
                    u64::MAX
                }
            }
        };
        // Prefer larger keys; break ties toward bigger items (frees more
        // room per eviction), then smaller ids for determinism.
        let better = match &best {
            None => true,
            Some((bd, bk)) => {
                key > *bk || (key == *bk && ts.data_size(DataId(d as u32)) > ts.data_size(*bd))
            }
        };
        if better {
            best = Some((DataId(d as u32), key));
        }
    }
    best.map(|(d, _)| d)
}

/// The compulsory-load lower bound for a given schedule: every data item
/// must be loaded at least once on every GPU that runs one of its
/// consumers, regardless of ordering or eviction policy.
pub fn compulsory_loads(ts: &TaskSet, schedule: &Schedule) -> u64 {
    let mut owner_mask = vec![0u64; ts.num_data()];
    for (gpu, tasks) in schedule.iter() {
        debug_assert!(gpu.index() < 64, "mask supports up to 64 GPUs");
        for &t in tasks {
            for &d in ts.inputs(t) {
                owner_mask[d as usize] |= 1 << gpu.index();
            }
        }
    }
    owner_mask.iter().map(|m| m.count_ones() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::figure1_schedule;
    use crate::taskset::{figure1_example, TaskSetBuilder};

    #[test]
    fn figure1_total_loads_is_11() {
        // The paper's worked example: M = 2, GPU1 loads D1 twice, GPU2
        // avoids multiple loads; total loads = 11.
        let ts = figure1_example();
        let s = figure1_schedule();
        let report = replay(&ts, &s, 2, EvictionPolicy::Belady).unwrap();
        assert_eq!(report.total_loads(), 11);
        // GPU0 runs 4 tasks with one reload (paper's D1 = our D3): 5 loads.
        assert_eq!(report.per_gpu[0].loads, 5);
        // GPU1 runs 5 tasks snaking through the grid: 6 loads.
        assert_eq!(report.per_gpu[1].loads, 6);
    }

    #[test]
    fn belady_never_beats_lru_in_reverse() {
        let ts = figure1_example();
        let s = figure1_schedule();
        let lru = replay(&ts, &s, 2, EvictionPolicy::Lru).unwrap();
        let belady = replay(&ts, &s, 2, EvictionPolicy::Belady).unwrap();
        assert!(belady.total_loads() <= lru.total_loads());
    }

    #[test]
    fn unlimited_memory_loads_each_data_once_per_gpu() {
        let ts = figure1_example();
        let s = figure1_schedule();
        let report = replay(&ts, &s, u64::MAX, EvictionPolicy::Lru).unwrap();
        assert_eq!(report.total_loads(), compulsory_loads(&ts, &s));
        assert_eq!(report.total_evictions(), 0);
    }

    #[test]
    fn compulsory_bound_counts_gpu_copies() {
        let ts = figure1_example();
        let s = figure1_schedule();
        // GPU0 uses D0,D1,D3,D4; GPU1 uses D0..D5 minus... enumerate:
        // GPU0 tasks T0,T1,T4,T3 -> D0,D3,D0,D4,D1,D4,D1,D3 = {D0,D1,D3,D4}
        // GPU1 tasks T2,T5,T8,T7,T6 -> {D0,D5,D1,D5,D2,D5,D2,D4,D2,D3}
        //   = {D0,D1,D2,D3,D4,D5}
        assert_eq!(compulsory_loads(&ts, &s), 4 + 6);
    }

    #[test]
    fn replay_respects_memory_bound() {
        let ts = figure1_example();
        let s = figure1_schedule();
        for cap in 2..=6 {
            for policy in [EvictionPolicy::Lru, EvictionPolicy::Belady] {
                let r = replay(&ts, &s, cap, policy).unwrap();
                for g in &r.per_gpu {
                    assert!(g.max_live_bytes <= cap);
                }
            }
        }
    }

    #[test]
    fn loads_decrease_with_memory() {
        let ts = figure1_example();
        let s = figure1_schedule();
        let mut prev = u64::MAX;
        for cap in 2..=6 {
            let r = replay(&ts, &s, cap, EvictionPolicy::Belady).unwrap();
            assert!(r.total_loads() <= prev);
            prev = r.total_loads();
        }
    }

    #[test]
    fn task_too_large_is_reported() {
        let mut b = TaskSetBuilder::new();
        let d0 = b.add_data(10);
        let d1 = b.add_data(10);
        let t = b.add_task(&[d0, d1], 1.0);
        let ts = b.build();
        let s = Schedule::from_lists(vec![vec![t]]);
        let err = replay(&ts, &s, 15, EvictionPolicy::Lru).unwrap_err();
        assert_eq!(
            err,
            ReplayError::TaskTooLarge {
                task: t,
                footprint: 20,
                capacity: 15
            }
        );
    }

    #[test]
    fn lru_pathology_on_row_major_gemm() {
        // The EAGER pathology of §V-B: row-major order on a grid with
        // memory below one matrix reloads the whole B matrix per row.
        let n = 8;
        let mut b = TaskSetBuilder::new();
        let rows: Vec<_> = (0..n).map(|_| b.add_data(1)).collect();
        let cols: Vec<_> = (0..n).map(|_| b.add_data(1)).collect();
        let mut order = Vec::new();
        for &row in &rows {
            for &col in &cols {
                order.push(b.add_task(&[row, col], 1.0));
            }
        }
        let ts = b.build();
        let s = Schedule::from_lists(vec![order]);
        // Capacity of n slots: row + (n-1) columns; LRU thrashes columns.
        let lru = replay(&ts, &s, n as u64, EvictionPolicy::Lru).unwrap();
        let belady = replay(&ts, &s, n as u64, EvictionPolicy::Belady).unwrap();
        assert!(
            lru.total_loads() > belady.total_loads(),
            "LRU {} should exceed Belady {}",
            lru.total_loads(),
            belady.total_loads()
        );
        // LRU reloads nearly all columns each row.
        assert!(lru.total_loads() as usize > n * (n / 2));
    }

    #[test]
    fn heterogeneous_sizes_evict_by_key_then_size() {
        let mut b = TaskSetBuilder::new();
        let small = b.add_data(1);
        let big = b.add_data(8);
        let other = b.add_data(4);
        let t0 = b.add_task(&[small, big], 1.0);
        let t1 = b.add_task(&[other], 1.0);
        let ts = b.build();
        let s = Schedule::from_lists(vec![vec![t0, t1]]);
        // Capacity 9: t0 loads 9 bytes; t1 needs 4 more -> must evict `big`
        // (neither is reused; tie on key, bigger item preferred).
        let r = replay(&ts, &s, 9, EvictionPolicy::Belady).unwrap();
        assert_eq!(r.total_loads(), 3);
        assert_eq!(r.per_gpu[0].evictions, 1);
        assert_eq!(r.per_gpu[0].max_live_bytes, 9);
    }
}
