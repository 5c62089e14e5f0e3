//! Schedules `σ` — per-GPU ordered task lists — and the load-balance
//! objective (Obj. 1 of §III).

use crate::ids::{GpuId, TaskId};
use crate::taskset::TaskSet;

/// A complete schedule: for each GPU `k`, the ordered list of tasks
/// `σ(k, 1), σ(k, 2), …` it processes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    gpus: Vec<Vec<TaskId>>,
}

/// Errors detected by [`Schedule::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// A task appears more than once across all GPUs.
    DuplicateTask(TaskId),
    /// A task of the task set is never scheduled.
    MissingTask(TaskId),
    /// A scheduled task id is outside the task set.
    UnknownTask(TaskId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::DuplicateTask(t) => write!(f, "task {t} scheduled more than once"),
            ScheduleError::MissingTask(t) => write!(f, "task {t} never scheduled"),
            ScheduleError::UnknownTask(t) => write!(f, "task {t} not in the task set"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// An empty schedule over `k` GPUs.
    pub fn new(k: usize) -> Self {
        Self {
            gpus: vec![Vec::new(); k],
        }
    }

    /// Build directly from per-GPU task lists.
    pub fn from_lists(gpus: Vec<Vec<TaskId>>) -> Self {
        Self { gpus }
    }

    /// Number of GPUs `K`.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Append a task to the end of GPU `k`'s list.
    pub fn push(&mut self, gpu: GpuId, task: TaskId) {
        self.gpus[gpu.index()].push(task);
    }

    /// Ordered task list of GPU `k`.
    pub fn gpu(&self, gpu: GpuId) -> &[TaskId] {
        &self.gpus[gpu.index()]
    }

    /// Iterate over `(GpuId, task list)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GpuId, &[TaskId])> {
        self.gpus
            .iter()
            .enumerate()
            .map(|(k, l)| (GpuId::from_usize(k), l.as_slice()))
    }

    /// Total number of scheduled tasks.
    pub fn num_tasks(&self) -> usize {
        self.gpus.iter().map(Vec::len).sum()
    }

    /// `nb_k` — number of tasks on GPU `k`.
    pub fn load(&self, gpu: GpuId) -> usize {
        self.gpus[gpu.index()].len()
    }

    /// Objective 1: `max_k nb_k` (uniform task durations).
    pub fn max_load(&self) -> usize {
        self.gpus.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Weighted variant of Objective 1: the maximum of the summed flop
    /// counts per GPU (heterogeneous tasks, end of §III).
    pub fn max_load_flops(&self, ts: &TaskSet) -> f64 {
        self.gpus
            .iter()
            .map(|l| l.iter().map(|&t| ts.flops(t)).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Load imbalance ratio `max_k nb_k / (m / K)`; 1.0 is perfect.
    pub fn imbalance(&self) -> f64 {
        let m = self.num_tasks();
        if m == 0 || self.gpus.is_empty() {
            return 1.0;
        }
        let avg = m as f64 / self.gpus.len() as f64;
        self.max_load() as f64 / avg
    }

    /// Check the schedule is a partition of the task set: every task
    /// appears exactly once over all GPUs.
    pub fn validate(&self, ts: &TaskSet) -> Result<(), ScheduleError> {
        let m = ts.num_tasks();
        let mut seen = vec![false; m];
        for list in &self.gpus {
            for &t in list {
                if t.index() >= m {
                    return Err(ScheduleError::UnknownTask(t));
                }
                if seen[t.index()] {
                    return Err(ScheduleError::DuplicateTask(t));
                }
                seen[t.index()] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(ScheduleError::MissingTask(TaskId::from_usize(missing)));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) use tests::figure1_schedule;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskset::figure1_example;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    /// The exact schedule of Figure 1: GPU1 runs T1,T2,T5,T4 and GPU2 runs
    /// T3,T6,T9,T8,T7 — in the paper's 1-based numbering. In our 0-based
    /// ids: GPU0 = [T0,T1,T4,T3], GPU1 = [T2,T5,T8,T7,T6].
    pub(crate) fn figure1_schedule() -> Schedule {
        Schedule::from_lists(vec![
            vec![t(0), t(1), t(4), t(3)],
            vec![t(2), t(5), t(8), t(7), t(6)],
        ])
    }

    #[test]
    fn figure1_schedule_is_valid() {
        let ts = figure1_example();
        let s = figure1_schedule();
        s.validate(&ts).unwrap();
        assert_eq!(s.num_tasks(), 9);
        assert_eq!(s.load(GpuId(0)), 4);
        assert_eq!(s.load(GpuId(1)), 5);
        assert_eq!(s.max_load(), 5);
    }

    #[test]
    fn validate_detects_duplicates() {
        let ts = figure1_example();
        let s = Schedule::from_lists(vec![vec![t(0), t(0)], vec![]]);
        assert_eq!(s.validate(&ts), Err(ScheduleError::DuplicateTask(t(0))));
    }

    #[test]
    fn validate_detects_missing() {
        let ts = figure1_example();
        let s = Schedule::from_lists(vec![vec![t(0)], vec![]]);
        assert_eq!(s.validate(&ts), Err(ScheduleError::MissingTask(t(1))));
    }

    #[test]
    fn validate_detects_unknown() {
        let ts = figure1_example();
        let s = Schedule::from_lists(vec![vec![t(99)], vec![]]);
        assert_eq!(s.validate(&ts), Err(ScheduleError::UnknownTask(t(99))));
    }

    #[test]
    fn imbalance_of_even_split_is_one() {
        let mut s = Schedule::new(2);
        for i in 0..4 {
            s.push(GpuId(i % 2), t(i));
        }
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.max_load(), 2);
    }

    #[test]
    fn weighted_load_uses_flops() {
        let ts = figure1_example(); // all tasks 1.0 flop
        let s = figure1_schedule();
        assert_eq!(s.max_load_flops(&ts), 5.0);
    }

    #[test]
    fn push_and_iter_roundtrip() {
        let mut s = Schedule::new(3);
        s.push(GpuId(2), t(7));
        let collected: Vec<_> = s.iter().map(|(g, l)| (g, l.len())).collect();
        assert_eq!(collected, vec![(GpuId(0), 0), (GpuId(1), 0), (GpuId(2), 1)]);
        assert_eq!(s.gpu(GpuId(2)), &[t(7)]);
    }
}
