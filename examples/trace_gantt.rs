//! Trace analysis: run three schedulers under memory pressure, print their
//! ASCII Gantt charts and overlap statistics — a visual rendition of the
//! paper's §V-C observation that DARTS+LUF wins by *overlapping* transfers
//! with computation even when it moves more bytes than DMDAR.
//!
//! ```text
//! cargo run --release --example trace_gantt
//! ```

use memsched::obs::{overlap, render_gantt};
use memsched::platform::RunConfig;
use memsched::prelude::*;
use memsched::workloads::constants::GEMM2D_DATA_BYTES;

fn main() {
    let ts = memsched::workloads::gemm_2d(14);
    let spec = PlatformSpec::v100(2).with_memory(6 * GEMM2D_DATA_BYTES);

    for named in [
        NamedScheduler::Eager,
        NamedScheduler::Dmdar,
        NamedScheduler::DartsLuf,
    ] {
        let mut sched = named.build();
        let probe = Probe::unbounded();
        let report = run_observed(&ts, &spec, sched.as_mut(), &RunConfig::default(), &probe)
            .unwrap()
            .0;
        let events = probe.events();
        let makespan = report.makespan as f64;
        let busy: u64 = report.per_gpu.iter().map(|g| g.busy).sum();
        println!(
            "== {} — {:.0} GFlop/s, {:.0} MB moved ==",
            report.scheduler,
            report.gflops(),
            report.transfers_mb()
        );
        print!(
            "{}",
            render_gantt(&events, spec.num_gpus, report.makespan, 100).unwrap()
        );
        println!(
            "bus utilization {:.0}%  |  transfer/compute overlap {:.0}%  |  GPU occupancy {:.0}%\n",
            100.0 * report.bus_busy_ns[0] as f64 / makespan,
            100.0 * overlap(&events).unwrap().ratio(),
            100.0 * busy as f64 / (makespan * spec.num_gpus as f64)
        );
    }
}
