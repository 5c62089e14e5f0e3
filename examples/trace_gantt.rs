//! Trace analysis: run two schedulers under memory pressure, print their
//! ASCII Gantt charts and overlap statistics — a visual rendition of the
//! paper's §V-C observation that DARTS+LUF wins by *overlapping* transfers
//! with computation even when it moves more bytes than DMDAR.
//!
//! ```text
//! cargo run --release --example trace_gantt
//! ```

use memsched::platform::{analysis, run_with_config, RunConfig};
use memsched::prelude::*;
use memsched::workloads::constants::GEMM2D_DATA_BYTES;

fn main() {
    let ts = memsched::workloads::gemm_2d(14);
    let spec = PlatformSpec::v100(2).with_memory(6 * GEMM2D_DATA_BYTES);
    let cfg = RunConfig {
        trace: TraceMode::Full,
        ..Default::default()
    };

    for named in [NamedScheduler::Eager, NamedScheduler::DartsLuf] {
        let mut sched = named.build();
        let (report, trace) = run_with_config(&ts, &spec, sched.as_mut(), &cfg).unwrap();
        let a = analysis::analyze(&trace, spec.num_gpus);
        println!(
            "== {} — {:.0} GFlop/s, {:.0} MB moved ==",
            report.scheduler,
            report.gflops(),
            report.transfers_mb()
        );
        print!("{}", analysis::render_gantt(&trace, spec.num_gpus, 100));
        println!(
            "bus utilization {:.0}%  |  transfer/compute overlap {:.0}%  |  GPU occupancy {:.0}%\n",
            100.0 * a.bus_utilization(),
            100.0 * a.overlap_ratio(),
            100.0 * a.mean_gpu_occupancy()
        );
    }
}
