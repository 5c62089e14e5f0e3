//! Cholesky scenario (Figure 11): heterogeneous kernels (POTRF, TRSM,
//! SYRK, GEMM), up to three inputs per task, large task counts — the
//! workload that motivates the DARTS `OPTI` and `3inputs` variants.
//!
//! ```text
//! cargo run --release --example cholesky_sweep
//! ```

use memsched::prelude::*;
use memsched::workloads::{cholesky_task_count, cholesky_with_kinds};
use std::time::Instant;

fn main() {
    let spec = PlatformSpec::v100(4);
    println!(
        "{:>6} {:>9} {:>9}   {:>28} {:>28}",
        "tiles", "tasks", "WS(MB)", "DARTS+LUF", "DARTS+LUF+OPTI-3inputs"
    );
    for n in [8usize, 16, 24, 32] {
        let (ts, kinds) = cholesky_with_kinds(n);
        assert_eq!(kinds.len(), cholesky_task_count(n));
        let mut line = format!(
            "{:>6} {:>9} {:>9.0}  ",
            n,
            ts.num_tasks(),
            ts.working_set_bytes() as f64 / 1e6
        );
        for named in [NamedScheduler::DartsLuf, NamedScheduler::DartsLufOpti3] {
            let mut sched = named.build();
            let wall = Instant::now();
            let r = run(&ts, &spec, sched.as_mut()).expect("run failed");
            let wall_ms = wall.elapsed().as_millis();
            line.push_str(&format!(" {:>12.0}GF {:>6}ms wall", r.gflops(), wall_ms));
        }
        println!("{line}");
    }
    println!(
        "\nOPTI caps the per-refill candidate scan, keeping the scheduler \
         cheap on huge task sets at a small cost in schedule quality \
         (Figure 11 of the paper)."
    );
}
