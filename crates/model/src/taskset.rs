//! The bipartite task/data sharing model of the paper (§III).
//!
//! A [`TaskSet`] stores the bipartite graph `G = (T ∪ D, E)` in CSR form on
//! both sides: for each task the list of its input data `D(Ti)`, and for
//! each data item the list of tasks that consume it. Data items carry a
//! size in bytes and tasks a flop count so that heterogeneous variants of
//! the model (mentioned at the end of §III) are supported; the paper's
//! uniform model is the special case where all sizes and flop counts are
//! equal.

use crate::ids::{DataId, TaskId};

/// Compressed sparse row adjacency used for both directions of the
/// bipartite graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Csr {
    pub offsets: Vec<u32>,
    pub targets: Vec<u32>,
}

impl Csr {
    fn row(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }
}

/// A set of independent tasks sharing read-only input data.
///
/// Build one with [`TaskSetBuilder`]. All queries are O(1) or O(degree).
#[derive(Clone, Debug)]
pub struct TaskSet {
    /// task -> sorted input data ids
    task_data: Csr,
    /// data -> sorted consumer task ids
    data_tasks: Csr,
    /// size in bytes of each data item
    data_size: Vec<u64>,
    /// flop count of each task
    task_flops: Vec<f64>,
    /// sum of input sizes per task (cached)
    task_footprint: Vec<u64>,
    /// arrival time (ns) of each task for online serving; empty means
    /// "all tasks available at t = 0" (batch mode).
    arrivals: Vec<u64>,
    /// relative completion deadline (ns from arrival) of each task for
    /// the online overload-control policies; empty (or a 0 entry) means
    /// "no deadline".
    deadlines: Vec<u64>,
    /// tenant class of each task (higher = more important); empty means
    /// "all tasks in class 0". Used by priority-based load shedding.
    classes: Vec<u32>,
}

impl TaskSet {
    /// Number of tasks `m`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.task_flops.len()
    }

    /// Number of data items `n`.
    #[inline]
    pub fn num_data(&self) -> usize {
        self.data_size.len()
    }

    /// Iterator over all task ids in submission order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        (0..self.num_tasks() as u32).map(TaskId)
    }

    /// Iterator over all data ids.
    pub fn data(&self) -> impl ExactSizeIterator<Item = DataId> + '_ {
        (0..self.num_data() as u32).map(DataId)
    }

    /// The input data `D(Ti)` of a task, sorted by id.
    #[inline]
    pub fn inputs(&self, t: TaskId) -> &[u32] {
        self.task_data.row(t.index())
    }

    /// The raw CSR slab of the task→data adjacency: `(offsets, ids)` with
    /// `ids[offsets[t] as usize .. offsets[t + 1] as usize]` the sorted
    /// input list of task `t`. This is the flat-handle view used by
    /// arena-style consumers (the engine's missing-input cache, HFP's
    /// package slab) that walk many rows without a per-row call.
    #[inline]
    pub fn input_slab(&self) -> (&[u32], &[u32]) {
        (&self.task_data.offsets, &self.task_data.targets)
    }

    /// The raw CSR slab of the data→task adjacency: `(offsets, ids)` with
    /// `ids[offsets[d] as usize .. offsets[d + 1] as usize]` the sorted
    /// consumer list of data item `d`.
    #[inline]
    pub fn consumer_slab(&self) -> (&[u32], &[u32]) {
        (&self.data_tasks.offsets, &self.data_tasks.targets)
    }

    /// The input data of a task as typed ids.
    pub fn input_ids(&self, t: TaskId) -> impl ExactSizeIterator<Item = DataId> + '_ {
        self.inputs(t).iter().map(|&d| DataId(d))
    }

    /// The tasks consuming a data item, sorted by id.
    #[inline]
    pub fn consumers(&self, d: DataId) -> &[u32] {
        self.data_tasks.row(d.index())
    }

    /// The tasks consuming a data item as typed ids.
    pub fn consumer_ids(&self, d: DataId) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        self.consumers(d).iter().map(|&t| TaskId(t))
    }

    /// Size in bytes of a data item.
    #[inline]
    pub fn data_size(&self, d: DataId) -> u64 {
        self.data_size[d.index()]
    }

    /// Flop count of a task.
    #[inline]
    pub fn flops(&self, t: TaskId) -> f64 {
        self.task_flops[t.index()]
    }

    /// Total flops over all tasks.
    pub fn total_flops(&self) -> f64 {
        self.task_flops.iter().sum()
    }

    /// Sum of the input sizes of a task (bytes that must be resident to run it).
    #[inline]
    pub fn task_footprint(&self, t: TaskId) -> u64 {
        self.task_footprint[t.index()]
    }

    /// Total bytes over all distinct data items (the *working set* of the
    /// paper's x axes).
    pub fn working_set_bytes(&self) -> u64 {
        self.data_size.iter().sum()
    }

    /// True when every data item has the same size (the paper's base model).
    pub fn uniform_data_size(&self) -> bool {
        self.data_size.windows(2).all(|w| w[0] == w[1])
    }

    /// Number of input data items shared by two tasks (intersection of the
    /// two sorted input lists). Used by HFP package affinity.
    pub fn shared_inputs(&self, a: TaskId, b: TaskId) -> usize {
        let (mut i, mut j) = (0, 0);
        let (da, db) = (self.inputs(a), self.inputs(b));
        let mut shared = 0;
        while i < da.len() && j < db.len() {
            match da[i].cmp(&db[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// Bytes of input data shared by two tasks.
    pub fn shared_bytes(&self, a: TaskId, b: TaskId) -> u64 {
        let (mut i, mut j) = (0, 0);
        let (da, db) = (self.inputs(a), self.inputs(b));
        let mut bytes = 0;
        while i < da.len() && j < db.len() {
            match da[i].cmp(&db[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    bytes += self.data_size[da[i] as usize];
                    i += 1;
                    j += 1;
                }
            }
        }
        bytes
    }

    /// Arrival time of a task in nanoseconds (0 in batch mode, where no
    /// arrivals were recorded).
    #[inline]
    pub fn arrival(&self, t: TaskId) -> u64 {
        self.arrivals.get(t.index()).copied().unwrap_or(0)
    }

    /// True when any task arrives after t = 0 (a *stream*, as opposed to
    /// a batch where the whole set is available up front).
    pub fn has_arrivals(&self) -> bool {
        self.arrivals.iter().any(|&a| a > 0)
    }

    /// A copy of this task set with per-task arrival times attached (one
    /// entry per task, in id order). The primary way to turn a batch
    /// workload into a stream: generate arrivals with a traffic model and
    /// attach them here.
    ///
    /// Panics when `arrivals.len()` differs from the task count.
    pub fn with_arrivals(mut self, arrivals: Vec<u64>) -> TaskSet {
        assert_eq!(
            arrivals.len(),
            self.num_tasks(),
            "one arrival time per task required"
        );
        self.arrivals = arrivals;
        self
    }

    /// Relative completion deadline of a task in nanoseconds from its
    /// arrival (0 when none was attached — the task never expires).
    #[inline]
    pub fn deadline(&self, t: TaskId) -> u64 {
        self.deadlines.get(t.index()).copied().unwrap_or(0)
    }

    /// True when any task carries a completion deadline.
    pub fn has_deadlines(&self) -> bool {
        self.deadlines.iter().any(|&d| d > 0)
    }

    /// Tenant class of a task (0 when no classes were attached). Higher
    /// class indices are more important to the shedding policies.
    #[inline]
    pub fn class_of(&self, t: TaskId) -> u32 {
        self.classes.get(t.index()).copied().unwrap_or(0)
    }

    /// Number of distinct tenant classes: `max class + 1` (1 when no
    /// classes were attached).
    pub fn num_classes(&self) -> usize {
        self.classes.iter().max().map_or(1, |&c| c as usize + 1)
    }

    /// A copy of this task set with per-task relative deadlines attached
    /// (nanoseconds from each task's arrival; 0 = no deadline for that
    /// task). One entry per task, in id order.
    ///
    /// Panics when `deadlines.len()` differs from the task count.
    pub fn with_deadlines(mut self, deadlines: Vec<u64>) -> TaskSet {
        assert_eq!(
            deadlines.len(),
            self.num_tasks(),
            "one deadline per task required"
        );
        self.deadlines = deadlines;
        self
    }

    /// A copy of this task set with per-task tenant classes attached
    /// (higher = more important). One entry per task, in id order.
    ///
    /// Panics when `classes.len()` differs from the task count.
    pub fn with_classes(mut self, classes: Vec<u32>) -> TaskSet {
        assert_eq!(
            classes.len(),
            self.num_tasks(),
            "one class per task required"
        );
        self.classes = classes;
        self
    }

    /// Maximum number of inputs over all tasks.
    pub fn max_inputs_per_task(&self) -> usize {
        (0..self.num_tasks())
            .map(|t| self.task_data.row(t).len())
            .max()
            .unwrap_or(0)
    }
}

/// Incremental builder for [`TaskSet`].
///
/// ```
/// use memsched_model::{TaskSetBuilder, DataId};
///
/// let mut b = TaskSetBuilder::new();
/// let d0 = b.add_data(1024);
/// let d1 = b.add_data(1024);
/// let _t = b.add_task(&[d0, d1], 1.0e9);
/// let ts = b.build();
/// assert_eq!(ts.num_tasks(), 1);
/// assert_eq!(ts.consumers(DataId(0)), &[0]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TaskSetBuilder {
    data_size: Vec<u64>,
    /// Task inputs accumulated directly in CSR form: `input_ends[t]` is the
    /// exclusive end of task `t`'s row in the shared `input_ids` slab (the
    /// implicit start is `input_ends[t - 1]`, or 0 for the first task).
    /// Building a million-task set this way costs O(1) vectors, not O(m).
    input_ends: Vec<u32>,
    input_ids: Vec<u32>,
    task_flops: Vec<f64>,
    arrivals: Vec<u64>,
}

impl TaskSetBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a data item of `size` bytes and return its id.
    pub fn add_data(&mut self, size: u64) -> DataId {
        assert!(size > 0, "data items must have a positive size");
        let id = DataId::from_usize(self.data_size.len());
        self.data_size.push(size);
        id
    }

    /// Register `count` data items of identical `size`, returning the first id.
    pub fn add_data_block(&mut self, count: usize, size: u64) -> DataId {
        let first = DataId::from_usize(self.data_size.len());
        for _ in 0..count {
            self.add_data(size);
        }
        first
    }

    /// Register a task reading `inputs` and performing `flops` floating
    /// point operations. Duplicate inputs are deduplicated.
    pub fn add_task(&mut self, inputs: &[DataId], flops: f64) -> TaskId {
        assert!(!inputs.is_empty(), "tasks must have at least one input");
        assert!(flops >= 0.0, "flops must be non-negative");
        let start = self.input_ids.len();
        for d in inputs {
            assert!(
                d.index() < self.data_size.len(),
                "task references unknown data {d}"
            );
            self.input_ids.push(d.0);
        }
        // Sort + dedup the appended tail in place: the row lives in the
        // shared slab, no per-task allocation.
        self.input_ids[start..].sort_unstable();
        let mut w = start + 1;
        for r in start + 1..self.input_ids.len() {
            if self.input_ids[r] != self.input_ids[w - 1] {
                self.input_ids[w] = self.input_ids[r];
                w += 1;
            }
        }
        self.input_ids.truncate(w);
        let id = TaskId::from_usize(self.input_ends.len());
        self.input_ends.push(self.input_ids.len() as u32);
        self.task_flops.push(flops);
        self.arrivals.push(0);
        id
    }

    /// Like [`TaskSetBuilder::add_task`], with an arrival time in
    /// nanoseconds for online serving.
    pub fn add_task_at(&mut self, inputs: &[DataId], flops: f64, arrival: u64) -> TaskId {
        let id = self.add_task(inputs, flops);
        self.arrivals[id.index()] = arrival;
        id
    }

    /// Set the arrival time of an already-added task.
    pub fn set_arrival(&mut self, t: TaskId, arrival: u64) {
        self.arrivals[t.index()] = arrival;
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.input_ends.len()
    }

    /// Number of data items added so far.
    pub fn num_data(&self) -> usize {
        self.data_size.len()
    }

    /// Finalize into an immutable [`TaskSet`].
    pub fn build(self) -> TaskSet {
        let m = self.input_ends.len();
        let n = self.data_size.len();
        let total_pins = self.input_ids.len();

        let mut task_offsets = Vec::with_capacity(m + 1);
        task_offsets.push(0u32);
        task_offsets.extend_from_slice(&self.input_ends);
        let task_targets = self.input_ids;
        let mut task_footprint = Vec::with_capacity(m);
        for t in 0..m {
            let row = &task_targets[task_offsets[t] as usize..task_offsets[t + 1] as usize];
            task_footprint.push(row.iter().map(|&d| self.data_size[d as usize]).sum());
        }

        // Transpose task->data into data->task, keeping consumer lists sorted
        // (tasks are visited in increasing id order).
        let mut degree = vec![0u32; n];
        for &d in &task_targets {
            degree[d as usize] += 1;
        }
        let mut data_offsets = Vec::with_capacity(n + 1);
        data_offsets.push(0u32);
        for &deg in &degree {
            data_offsets.push(data_offsets.last().unwrap() + deg);
        }
        let mut cursor: Vec<u32> = data_offsets[..n].to_vec();
        let mut data_targets = vec![0u32; total_pins];
        for t in 0..m {
            for &d in &task_targets[task_offsets[t] as usize..task_offsets[t + 1] as usize] {
                data_targets[cursor[d as usize] as usize] = t as u32;
                cursor[d as usize] += 1;
            }
        }

        TaskSet {
            task_data: Csr {
                offsets: task_offsets,
                targets: task_targets,
            },
            data_tasks: Csr {
                offsets: data_offsets,
                targets: data_targets,
            },
            data_size: self.data_size,
            task_flops: self.task_flops,
            task_footprint,
            // Batch sets stay byte-identical on disk: only record the
            // arrivals vector when some task actually arrives late.
            arrivals: if self.arrivals.iter().any(|&a| a > 0) {
                self.arrivals
            } else {
                Vec::new()
            },
            deadlines: Vec::new(),
            classes: Vec::new(),
        }
    }
}

/// Construct the 9-task / 6-data example of Figure 1 of the paper
/// (2D grid dependencies: task `T(i,j)` reads row data `D(i)` and column
/// data `D(3+j)`, all of unit size).
///
/// Task ids are row-major: `T0..T8`; data `D0..D2` are the rows and
/// `D3..D5` the columns.
pub fn figure1_example() -> TaskSet {
    let mut b = TaskSetBuilder::new();
    let rows: Vec<DataId> = (0..3).map(|_| b.add_data(1)).collect();
    let cols: Vec<DataId> = (0..3).map(|_| b.add_data(1)).collect();
    for &row in &rows {
        for &col in &cols {
            b.add_task(&[row, col], 1.0);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_bipartite_graph() {
        let ts = figure1_example();
        assert_eq!(ts.num_tasks(), 9);
        assert_eq!(ts.num_data(), 6);
        // T4 = (row 1, col 1) -> D1 and D4
        assert_eq!(ts.inputs(TaskId(4)), &[1, 4]);
        // D0 (row 0) consumed by T0, T1, T2
        assert_eq!(ts.consumers(DataId(0)), &[0, 1, 2]);
        // D3 (col 0) consumed by T0, T3, T6
        assert_eq!(ts.consumers(DataId(3)), &[0, 3, 6]);
        assert_eq!(ts.working_set_bytes(), 6);
        assert!(ts.uniform_data_size());
        assert_eq!(ts.max_inputs_per_task(), 2);
    }

    #[test]
    fn duplicate_inputs_are_deduplicated() {
        let mut b = TaskSetBuilder::new();
        let d = b.add_data(10);
        let t = b.add_task(&[d, d, d], 5.0);
        let ts = b.build();
        assert_eq!(ts.inputs(t), &[0]);
        assert_eq!(ts.task_footprint(t), 10);
    }

    #[test]
    fn input_slab_matches_per_row_views() {
        let ts = figure1_example();
        let (offsets, ids) = ts.input_slab();
        assert_eq!(offsets.len(), ts.num_tasks() + 1);
        for t in 0..ts.num_tasks() {
            let row = &ids[offsets[t] as usize..offsets[t + 1] as usize];
            assert_eq!(row, ts.inputs(TaskId(t as u32)));
        }
        let (doffsets, dids) = ts.consumer_slab();
        assert_eq!(doffsets.len(), ts.num_data() + 1);
        for d in 0..ts.num_data() {
            let row = &dids[doffsets[d] as usize..doffsets[d + 1] as usize];
            assert_eq!(row, ts.consumers(DataId(d as u32)));
        }
    }

    #[test]
    fn shared_inputs_counts_intersection() {
        let ts = figure1_example();
        // T0=(D0,D3), T1=(D0,D4): share D0.
        assert_eq!(ts.shared_inputs(TaskId(0), TaskId(1)), 1);
        assert_eq!(ts.shared_bytes(TaskId(0), TaskId(1)), 1);
        // T0=(D0,D3), T4=(D1,D4): share nothing.
        assert_eq!(ts.shared_inputs(TaskId(0), TaskId(4)), 0);
        // A task shares all its inputs with itself.
        assert_eq!(ts.shared_inputs(TaskId(0), TaskId(0)), 2);
    }

    #[test]
    fn footprints_and_flops_accumulate() {
        let mut b = TaskSetBuilder::new();
        let d0 = b.add_data(100);
        let d1 = b.add_data(200);
        b.add_task(&[d0], 1.0);
        b.add_task(&[d0, d1], 2.0);
        let ts = b.build();
        assert_eq!(ts.task_footprint(TaskId(0)), 100);
        assert_eq!(ts.task_footprint(TaskId(1)), 300);
        assert_eq!(ts.total_flops(), 3.0);
        assert_eq!(ts.working_set_bytes(), 300);
        assert!(!ts.uniform_data_size());
    }

    #[test]
    #[should_panic(expected = "unknown data")]
    fn task_with_unknown_data_panics() {
        let mut b = TaskSetBuilder::new();
        b.add_task(&[DataId(0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn task_without_inputs_panics() {
        let mut b = TaskSetBuilder::new();
        b.add_task(&[], 1.0);
    }

    #[test]
    fn arrivals_default_to_batch_and_round_trip() {
        let ts = figure1_example();
        assert!(!ts.has_arrivals());
        assert_eq!(ts.arrival(TaskId(0)), 0);

        let mut b = TaskSetBuilder::new();
        let d = b.add_data(1);
        b.add_task(&[d], 1.0);
        let t1 = b.add_task_at(&[d], 1.0, 500);
        b.set_arrival(t1, 700);
        let ts = b.build();
        assert!(ts.has_arrivals());
        assert_eq!(ts.arrival(TaskId(0)), 0);
        assert_eq!(ts.arrival(TaskId(1)), 700);

        let streamed = figure1_example().with_arrivals((0..9).map(|i| i * 10).collect());
        assert!(streamed.has_arrivals());
        assert_eq!(streamed.arrival(TaskId(8)), 80);
    }

    #[test]
    #[should_panic(expected = "one arrival time per task")]
    fn with_arrivals_rejects_wrong_length() {
        figure1_example().with_arrivals(vec![0; 3]);
    }

    #[test]
    fn deadlines_and_classes_default_to_none() {
        let ts = figure1_example();
        assert!(!ts.has_deadlines());
        assert_eq!(ts.deadline(TaskId(0)), 0);
        assert_eq!(ts.class_of(TaskId(0)), 0);
        assert_eq!(ts.num_classes(), 1);

        let ts = ts
            .with_deadlines((0..9).map(|i| i * 1000).collect())
            .with_classes((0..9).map(|i| (i % 3) as u32).collect());
        assert!(ts.has_deadlines());
        assert_eq!(ts.deadline(TaskId(0)), 0, "0 means no deadline");
        assert_eq!(ts.deadline(TaskId(8)), 8000);
        assert_eq!(ts.class_of(TaskId(5)), 2);
        assert_eq!(ts.num_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "one deadline per task")]
    fn with_deadlines_rejects_wrong_length() {
        figure1_example().with_deadlines(vec![0; 3]);
    }

    #[test]
    #[should_panic(expected = "one class per task")]
    fn with_classes_rejects_wrong_length() {
        figure1_example().with_classes(vec![0; 3]);
    }

    #[test]
    fn add_data_block_returns_first_id() {
        let mut b = TaskSetBuilder::new();
        let first = b.add_data_block(4, 7);
        assert_eq!(first, DataId(0));
        assert_eq!(b.num_data(), 4);
        let second = b.add_data(7);
        assert_eq!(second, DataId(4));
    }
}
