//! Quickstart: run every scheduler of the paper on one workload and
//! compare throughput and data movement.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use memsched::model::bounds;
use memsched::prelude::*;

fn main() {
    // A 2D blocked matrix multiplication of 40×40 tasks (~1.2 GB working
    // set) on two 500 MB V100s — squarely in the memory-constrained
    // regime where the paper's strategies diverge.
    let ts = memsched::workloads::gemm_2d(40);
    let spec = PlatformSpec::v100(2);

    println!(
        "workload: 2D gemm 40x40 — {} tasks, {} data items, {:.0} MB working set",
        ts.num_tasks(),
        ts.num_data(),
        ts.working_set_bytes() as f64 / 1e6
    );
    println!(
        "platform: {} GPUs x {:.0} MB, {:.0} GB/s shared bus, roofline {:.0} GFlop/s\n",
        spec.num_gpus,
        spec.memory_bytes as f64 / 1e6,
        spec.bus_bandwidth / 1e9,
        spec.num_gpus as f64 * spec.gpu_gflops
    );

    println!(
        "{:<24} {:>10} {:>14} {:>8} {:>10}",
        "scheduler", "GFlop/s", "transfers(MB)", "loads", "max tasks"
    );
    for named in [
        NamedScheduler::Eager,
        NamedScheduler::Dmdar,
        NamedScheduler::HmetisR,
        NamedScheduler::Mhfp,
        NamedScheduler::Darts,
        NamedScheduler::DartsLuf,
    ] {
        let mut sched = named.build();
        let report = run(&ts, &spec, sched.as_mut()).expect("run failed");
        println!(
            "{:<24} {:>10.0} {:>14.0} {:>8} {:>10}",
            report.scheduler,
            report.gflops(),
            report.transfers_mb(),
            report.total_loads,
            report.max_load()
        );
    }

    // Reference lines of Figure 4. Lower bound on transfers: every
    // consumed data item crosses the bus at least once. PCI bus limit: the
    // most the bus can carry in the compute-roofline time, so a schedule
    // moving more cannot reach the roofline.
    println!(
        "\ncompulsory transfers: {:.0} MB",
        bounds::min_total_load_bytes(&ts) as f64 / 1e6
    );
    println!(
        "PCI bus limit:        {:.0} MB",
        bounds::pci_bus_limit_bytes(&ts, spec.num_gpus, spec.gpu_gflops, spec.bus_bandwidth) / 1e6
    );
}
