//! Golden-trace regression tests: one tiny fixed workload per scheduler
//! family, the full `TraceEvent` log rendered to a stable text form and
//! diffed against a snapshot under `tests/golden/`. Any change to engine
//! event ordering, bus modelling, eviction decisions or a scheduler's
//! policy shows up here as a readable diff.
//!
//! To regenerate the snapshots after an intentional change:
//! `MEMSCHED_UPDATE_GOLDEN=1 cargo test --test golden_traces`.

mod common;

use common::{check_golden, render_batch_golden, run_validated};
use memsched::prelude::*;
use memsched::workloads::constants::GEMM2D_DATA_BYTES;

fn render_trace(named: &NamedScheduler) -> String {
    // Tiny but non-trivial: 3x3 outer-product tiles under memory pressure
    // on 2 GPUs, so loads, evictions and both GPUs all appear.
    let ts = memsched::workloads::gemm_2d(3);
    let spec = PlatformSpec::v100(2).with_memory(4 * GEMM2D_DATA_BYTES);
    let config = RunConfig {
        trace: TraceMode::Full,
        ..RunConfig::default()
    };
    let (report, trace) = run_validated(&ts, &spec, named.build().as_mut(), &config);
    render_batch_golden(&report, &trace)
}

#[test]
fn golden_trace_eager() {
    check_golden("eager.trace", &render_trace(&NamedScheduler::Eager));
}

#[test]
fn golden_trace_dmdar() {
    check_golden("dmdar.trace", &render_trace(&NamedScheduler::Dmdar));
}

#[test]
fn golden_trace_mhfp() {
    check_golden("mhfp.trace", &render_trace(&NamedScheduler::Mhfp));
}

#[test]
fn golden_trace_darts_luf() {
    check_golden("darts_luf.trace", &render_trace(&NamedScheduler::DartsLuf));
}
