//! The Ready reordering heuristic (Algorithm 2 / §IV-A), shared by DMDAR,
//! hMETIS+R and mHFP: among the tasks allocated to a GPU, run first the
//! one requiring the fewest data transfers right now.

use memsched_model::{GpuId, TaskId};
use memsched_platform::RuntimeView;

/// How many queued tasks Ready may inspect per pop. The paper notes that
/// Ready "can only reorder a limited number of tasks ahead of the
/// computation"; an unbounded scan would also make each pop `O(m)`.
pub const DEFAULT_READY_WINDOW: usize = 128;

/// Pick the index (within `queue`, scanning at most `window` entries) of
/// the task with the fewest missing input bytes on `gpu`; earliest wins
/// ties, so with everything resident this degrades to FIFO.
///
/// Each task's missing bytes are one O(1) read of the engine's
/// missing-input counters ([`RuntimeView::missing`], taken once per
/// pick), the zero-missing fast path exits before any bookkeeping, and
/// the running minimum is two plain scalars — no `Option` churn in the
/// loop.
pub fn ready_pick(
    queue: &[TaskId],
    gpu: GpuId,
    view: &RuntimeView<'_>,
    window: usize,
) -> Option<usize> {
    let scan = queue.len().min(window.max(1));
    let mut best_i = 0usize;
    let mut best_missing = u64::MAX;
    let counters = view.missing();
    for (i, &t) in queue.iter().take(scan).enumerate() {
        let missing = counters.bytes(gpu, t);
        if missing == 0 {
            return Some(i); // cannot do better than zero transfers
        }
        if missing < best_missing {
            best_missing = missing;
            best_i = i;
        }
    }
    (best_missing != u64::MAX).then_some(best_i)
}

/// Reference implementation of [`ready_pick`] re-walking every task's
/// input list ([`RuntimeView::missing_bytes_scan`]) — the differential
/// baseline for the `naive` configurations.
#[cfg(any(test, feature = "naive"))]
pub fn ready_pick_scan(
    queue: &[TaskId],
    gpu: GpuId,
    view: &RuntimeView<'_>,
    window: usize,
) -> Option<usize> {
    let scan = queue.len().min(window.max(1));
    let mut best: Option<(usize, u64)> = None;
    for (i, &t) in queue.iter().take(scan).enumerate() {
        let missing = view.missing_bytes_scan(gpu, t);
        if missing == 0 {
            return Some(i);
        }
        if best.is_none_or(|(_, b)| missing < b) {
            best = Some((i, missing));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::{TaskSet, TaskSetBuilder};
    use memsched_platform::{run, PlatformSpec, Scheduler};

    /// Single-GPU scheduler that serves its queue through `ready_pick`.
    struct ReadyFifo {
        queue: Vec<TaskId>,
        window: usize,
    }

    impl Scheduler for ReadyFifo {
        fn name(&self) -> String {
            "ready-fifo".into()
        }
        fn prepare(&mut self, ts: &TaskSet, _: &PlatformSpec) {
            self.queue = ts.tasks().collect();
        }
        fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
            let i = ready_pick(&self.queue, gpu, view, self.window)?;
            Some(self.queue.remove(i))
        }
    }

    /// Tasks: T0 uses D0; T1 uses D1; T2 uses D0 again. With memory for
    /// one item, Ready runs T2 right after T0 to reuse D0.
    fn reuse_set() -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let d0 = b.add_data(100);
        let d1 = b.add_data(100);
        b.add_task(&[d0], 1e6);
        b.add_task(&[d1], 1e6);
        b.add_task(&[d0], 1e6);
        b.build()
    }

    #[test]
    fn ready_reorders_for_residency() {
        let ts = reuse_set();
        let spec = PlatformSpec::v100(1)
            .with_memory(100)
            .with_pipeline_depth(1);
        let mut with_ready = ReadyFifo {
            queue: vec![],
            window: 16,
        };
        let r = run(&ts, &spec, &mut with_ready).unwrap();
        // T0 (load D0), T2 (D0 resident), T1 (load D1): 2 loads total.
        assert_eq!(r.total_loads, 2);

        let mut fifo = ReadyFifo {
            queue: vec![],
            window: 1, // window of 1 == plain FIFO
        };
        let r = run(&ts, &spec, &mut fifo).unwrap();
        // T0, T1, T2 in order: D0, D1, D0 again = 3 loads.
        assert_eq!(r.total_loads, 3);
    }

    /// Like [`ReadyFifo`] but asserting, on every pop, that (a) the fast
    /// implementation agrees with the input-walking reference and (b) an
    /// all-resident window picks index 0 (the FIFO-degradation claim).
    struct AssertFifo {
        queue: Vec<TaskId>,
        window: usize,
        fifo_pops: usize,
        order: Vec<TaskId>,
    }

    impl Scheduler for AssertFifo {
        fn name(&self) -> String {
            "assert-fifo".into()
        }
        fn prepare(&mut self, ts: &TaskSet, _: &PlatformSpec) {
            self.queue = ts.tasks().collect();
        }
        fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
            let i = ready_pick(&self.queue, gpu, view, self.window)?;
            assert_eq!(
                ready_pick_scan(&self.queue, gpu, view, self.window),
                Some(i),
                "fast ready_pick diverged from the scan reference"
            );
            let scan = self.queue.len().min(self.window.max(1));
            if self
                .queue
                .iter()
                .take(scan)
                .all(|&t| view.missing().bytes(gpu, t) == 0)
            {
                assert_eq!(i, 0, "all-resident window must degrade to FIFO");
                self.fifo_pops += 1;
            }
            let t = self.queue.remove(i);
            self.order.push(t);
            Some(t)
        }
    }

    #[test]
    fn all_resident_degrades_to_fifo_at_window_boundaries() {
        // Four tasks all reading the same two items: after the first pop
        // loads D0/D1, every window is all-resident, so Ready must serve
        // the remaining tasks in FIFO order — at a window smaller than,
        // equal to, and larger than the queue.
        let mut b = TaskSetBuilder::new();
        let d0 = b.add_data(10);
        let d1 = b.add_data(10);
        for _ in 0..4 {
            b.add_task(&[d0, d1], 1e6);
        }
        let ts = b.build();
        for window in [1, 2, 4, 5, DEFAULT_READY_WINDOW] {
            let mut s = AssertFifo {
                queue: vec![],
                window,
                fifo_pops: 0,
                order: vec![],
            };
            let spec = PlatformSpec::v100(1).with_pipeline_depth(1);
            run(&ts, &spec, &mut s).unwrap();
            assert!(
                s.fifo_pops >= 3,
                "window {window}: the all-resident case never exercised"
            );
            assert_eq!(
                s.order,
                (0..4).map(TaskId::from_usize).collect::<Vec<_>>(),
                "window {window}: not FIFO order"
            );
        }
    }

    #[test]
    fn window_bounds_the_scan() {
        let ts = reuse_set();
        let spec = PlatformSpec::v100(1)
            .with_memory(100)
            .with_pipeline_depth(1);
        let mut windowed = ReadyFifo {
            queue: vec![],
            window: 2,
        };
        // Window 2 sees T1 and T2 after T0 completes, so it still finds T2.
        let r = run(&ts, &spec, &mut windowed).unwrap();
        assert_eq!(r.total_loads, 2);
    }
}
