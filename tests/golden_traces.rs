//! Golden-trace regression tests: one tiny fixed workload per scheduler
//! family, the full `TraceEvent` log rendered to a stable text form and
//! diffed against a snapshot under `tests/golden/`. Any change to engine
//! event ordering, bus modelling, eviction decisions or a scheduler's
//! policy shows up here as a readable diff. The `*.fault.trace`
//! snapshots pin the queue families' fail-stop recovery: how each hands
//! a dead GPU's tasks back to the survivors.
//!
//! To regenerate the snapshots after an intentional change:
//! `MEMSCHED_UPDATE_GOLDEN=1 cargo test --test golden_traces`.

mod common;

use common::{check_golden, render_batch_golden, run_validated};
use memsched::prelude::*;
use memsched::workloads::constants::GEMM2D_DATA_BYTES;

/// Run `named` on `ts` over `gpus` V100s at M = 4 tiles under `faults`
/// and render the batch golden snapshot.
fn render_on(
    named: &NamedScheduler,
    ts: &TaskSet,
    gpus: usize,
    faults: FaultPlan,
    workload: &str,
) -> String {
    let spec = PlatformSpec::v100(gpus).with_memory(4 * GEMM2D_DATA_BYTES);
    let config = RunConfig {
        trace: TraceMode::Full,
        faults,
        ..RunConfig::default()
    };
    let (report, trace) = run_validated(ts, &spec, named.build().as_mut(), &config);
    render_batch_golden(workload, &report, &trace)
}

fn render_trace(named: &NamedScheduler) -> String {
    // Tiny but non-trivial: 3x3 outer-product tiles under memory pressure
    // on 2 GPUs, so loads, evictions and both GPUs all appear.
    render_on(
        named,
        &memsched::workloads::gemm_2d(3),
        2,
        FaultPlan::none(),
        "gemm_2d(3), 2x V100, M = 4 tiles",
    )
}

/// 4x4 tiles on 3 GPUs; GPU 1 fails at 2 ms while it still holds queued
/// work, so its pipeline and its queue both go back to the survivors.
fn render_fault_trace(named: &NamedScheduler) -> String {
    render_on(
        named,
        &memsched::workloads::gemm_2d(4),
        3,
        FaultPlan::none().with_gpu_failure(1, 2_000_000),
        "gemm_2d(4), 3x V100, M = 4 tiles, GPU 1 fails at 2 ms",
    )
}

#[test]
fn golden_trace_eager() {
    check_golden("eager.trace", &render_trace(&NamedScheduler::Eager));
}

#[test]
fn golden_trace_dmda() {
    check_golden("dmda.trace", &render_trace(&NamedScheduler::Dmda));
}

#[test]
fn golden_trace_dmdar() {
    check_golden("dmdar.trace", &render_trace(&NamedScheduler::Dmdar));
}

#[test]
fn golden_trace_hmetis_r() {
    check_golden("hmetis_r.trace", &render_trace(&NamedScheduler::HmetisR));
}

#[test]
fn golden_trace_mhfp() {
    check_golden("mhfp.trace", &render_trace(&NamedScheduler::Mhfp));
}

#[test]
fn golden_trace_darts_luf() {
    check_golden("darts_luf.trace", &render_trace(&NamedScheduler::DartsLuf));
}

#[test]
fn golden_fault_trace_dmda() {
    check_golden(
        "dmda.fault.trace",
        &render_fault_trace(&NamedScheduler::Dmda),
    );
}

#[test]
fn golden_fault_trace_dmdar() {
    check_golden(
        "dmdar.fault.trace",
        &render_fault_trace(&NamedScheduler::Dmdar),
    );
}

#[test]
fn golden_fault_trace_hmetis_r() {
    check_golden(
        "hmetis_r.fault.trace",
        &render_fault_trace(&NamedScheduler::HmetisR),
    );
}

#[test]
fn golden_fault_trace_mhfp() {
    check_golden(
        "mhfp.fault.trace",
        &render_fault_trace(&NamedScheduler::Mhfp),
    );
}

#[test]
fn golden_fault_trace_router() {
    check_golden(
        "router.fault.trace",
        &render_fault_trace(&NamedScheduler::Router),
    );
}
