//! Writing your own scheduling policy against the runtime interface:
//! a locality-aware variant of the shared queue that skips ahead to tasks
//! whose inputs are already resident, compared against EAGER and the
//! offline replay bound.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use memsched::prelude::*;
use std::collections::VecDeque;

/// A shared queue that scans a small window for a zero-transfer task
/// before falling back to FIFO order.
struct WindowedLocalityScheduler {
    queue: VecDeque<TaskId>,
    window: usize,
}

impl Scheduler for WindowedLocalityScheduler {
    fn name(&self) -> String {
        format!("windowed-locality({})", self.window)
    }

    // Declare the optional hooks this policy overrides: none. The engine
    // then skips every notification, and evicts by LRU without asking.
    fn hooks(&self) -> Hooks {
        Hooks::NONE
    }

    fn prepare(&mut self, ts: &TaskSet, _spec: &PlatformSpec) {
        self.queue = ts.tasks().collect();
    }

    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        // Prefer a task with everything already on this GPU. The
        // missing-input counters are built on first use, so a policy that
        // never reads them never pays for their upkeep.
        let missing = view.missing();
        let pick = self
            .queue
            .iter()
            .take(self.window)
            .position(|&t| missing.bytes(gpu, t) == 0)
            .unwrap_or(0);
        self.queue.remove(pick)
    }
}

fn main() {
    let ts = memsched::workloads::gemm_2d(24);
    let item = memsched::workloads::constants::GEMM2D_DATA_BYTES;
    let spec = PlatformSpec::v100(2).with_memory(10 * item);

    println!(
        "2D gemm 24x24 on 2 GPUs with {:.0} MB each\n",
        spec.memory_bytes as f64 / 1e6
    );
    println!(
        "{:<26} {:>10} {:>14}",
        "scheduler", "GFlop/s", "transfers(MB)"
    );

    let mut eager = EagerScheduler::new();
    let r = run(&ts, &spec, &mut eager).unwrap();
    println!(
        "{:<26} {:>10.0} {:>14.0}",
        r.scheduler,
        r.gflops(),
        r.transfers_mb()
    );

    for window in [8, 64] {
        let mut mine = WindowedLocalityScheduler {
            queue: VecDeque::new(),
            window,
        };
        let r = run(&ts, &spec, &mut mine).unwrap();
        println!(
            "{:<26} {:>10.0} {:>14.0}",
            r.scheduler,
            r.gflops(),
            r.transfers_mb()
        );
    }

    let mut darts = DartsScheduler::new(DartsConfig::luf());
    let r = run(&ts, &spec, &mut darts).unwrap();
    println!(
        "{:<26} {:>10.0} {:>14.0}",
        r.scheduler,
        r.gflops(),
        r.transfers_mb()
    );

    // Offline check: replay DARTS-like row ordering under Belady's rule to
    // see how far from the offline optimum the online policies land.
    let mut schedule = Schedule::new(1);
    for t in ts.tasks() {
        schedule.push(GpuId(0), t);
    }
    let replayed = replay(&ts, &schedule, spec.memory_bytes, EvictionPolicy::Belady).unwrap();
    println!(
        "\noffline single-GPU row order + Belady eviction: {} loads ({:.0} MB)",
        replayed.total_loads(),
        replayed.total_load_bytes() as f64 / 1e6
    );
}
