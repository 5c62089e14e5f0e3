//! Checksum-mode trace stability at the `scale_xl` tier.
//!
//! [`TraceMode::Checksum`] exists so million-task runs can prove trace
//! equality without materializing a million-event log. That only works if
//! the checksum is an *invariant* of the run: the same workload and
//! platform must fold to the same 64-bit value no matter how many harness
//! worker threads raced around the (single-threaded) engine. These tests
//! pin that contract:
//!
//! * the quick `scale_xl` preset is checksummed through the experiment
//!   pool at `--jobs` 1, 2 and 8 and all three sweeps must agree;
//! * the values are snapshotted in `tests/golden/engine_scale_xl.checksums`
//!   (regenerate with `MEMSCHED_UPDATE_GOLDEN=1 cargo test --test
//!   engine_scale_checksums`);
//! * two `#[ignore]`d release-mode tests run with
//!   `cargo test --release --test engine_scale_checksums -- --ignored`:
//!   a million-task run (`gemm_3d(100)`, the full-tier member) pins its
//!   checksum as a source constant, and the quick preset on the
//!   pre-refactor core must fold its materialized trace to the same
//!   checksum while the flat core stays at least 3× faster at 10⁵ tasks.

use memsched::experiments::pool::run_indexed;
use memsched::platform::TraceEvent;
use memsched::prelude::*;
use memsched::schedulers::EagerScheduler;
use memsched::workloads::{scale_xl_preset, Workload};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Run EAGER over `ts` on the `scale_xl` platform: 16 V100s with room
/// for the whole working set, so the engine loop dominates.
fn run_scale(ts: &TaskSet, config: &RunConfig) -> (RunReport, Vec<TraceEvent>) {
    let spec = PlatformSpec::v100(16).with_memory(ts.working_set_bytes());
    run_with_config(ts, &spec, &mut EagerScheduler::new(), config).expect("scale_xl run")
}

fn checksum_config() -> RunConfig {
    RunConfig {
        trace: TraceMode::Checksum,
        ..RunConfig::default()
    }
}

/// Run one workload end to end in checksum mode and render a stable
/// one-line summary: label, task count, checksum, makespan, loads.
fn checksum_line(w: &Workload) -> String {
    let ts = w.generate();
    let (report, trace) = run_scale(&ts, &checksum_config());
    assert!(trace.is_empty(), "checksum mode must not materialize events");
    format!(
        "{} tasks={} checksum={:016x} makespan={} loads={}",
        w.label(),
        ts.num_tasks(),
        report.trace_checksum.expect("checksum mode records a checksum"),
        report.makespan,
        report.total_loads,
    )
}

/// The quick-tier checksums must not depend on the harness's `--jobs`
/// level: the pool distributes whole runs, never splits one, so 1, 2 and
/// 8 workers must produce byte-identical summaries. The jobs=1 sweep is
/// then compared against the golden snapshot.
#[test]
fn scale_xl_checksums_stable_across_jobs() {
    let workloads = scale_xl_preset(true);
    let baseline = run_indexed(&workloads, 1, |_, w| checksum_line(w));
    for jobs in [2usize, 8] {
        let swept = run_indexed(&workloads, jobs, |_, w| checksum_line(w));
        assert_eq!(
            baseline, swept,
            "checksum summaries changed between --jobs 1 and --jobs {jobs}"
        );
    }

    let got = baseline.join("\n") + "\n";
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "engine_scale_xl.checksums",
    ]
    .iter()
    .collect();
    if std::env::var("MEMSCHED_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {path:?} ({e}); run with MEMSCHED_UPDATE_GOLDEN=1 to create")
    });
    assert_eq!(
        got, want,
        "scale_xl checksums drifted from the golden snapshot \
         (rerun with MEMSCHED_UPDATE_GOLDEN=1 if the change is intentional)"
    );
}

/// Held by each `#[ignore]`d release-mode test, so the million-task run
/// never shares the host with the timed runs of the speedup floor.
static RELEASE_TIER: Mutex<()> = Mutex::new(());

fn release_tier() -> MutexGuard<'static, ()> {
    RELEASE_TIER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The full-tier million-task member. A bounded-memory checksum run must
/// complete and fold to exactly this value; any engine-core change that
/// reorders even one event at the million-task scale lands here.
///
/// Run with `cargo test --release --test engine_scale_checksums -- --ignored`.
#[test]
#[ignore = "million-task run; execute in release mode explicitly"]
fn million_task_checksum_is_pinned() {
    const PINNED: &str = "gemm3d(n=100) tasks=1000000 checksum=3749c1b16210bd45 makespan=102873084148 loads=319091";
    let _tier = release_tier();
    let line = checksum_line(&Workload::Gemm3d { n: 100 });
    assert_eq!(line, PINNED, "million-task trace stream changed");
}

/// The flat core must run the 10⁵-task member at least this many times
/// faster than the pre-refactor core.
const ENGINE_SPEEDUP_FLOOR: f64 = 3.0;

/// The pre-refactor core (`naive_core`: binary-heap event queue, full
/// progress scan per event, materialized trace) against the flat core
/// (calendar queue, dirty-GPU worklist, streaming checksum) on the quick
/// preset. The naive core's trace must fold to the flat core's checksum,
/// with the same makespan, loads and per-GPU task counts, and at the
/// 10⁵-task member the flat core must be at least
/// [`ENGINE_SPEEDUP_FLOOR`] times faster. Both cores run in this
/// process, so the floor tracks the host.
///
/// Run with `cargo test --release --test engine_scale_checksums -- --ignored`.
#[test]
#[ignore = "wall-time floor; execute in release mode explicitly"]
fn flat_core_matches_and_outruns_the_naive_core() {
    let _tier = release_tier();
    let naive_config = RunConfig {
        trace: TraceMode::Full,
        naive_core: true,
        ..RunConfig::default()
    };
    for w in scale_xl_preset(true) {
        let ts = w.generate();
        let label = w.label();
        let timed = |config: &RunConfig| {
            let started = Instant::now();
            let out = run_scale(&ts, config);
            (out, started.elapsed().as_secs_f64())
        };
        let ((flat, _), flat_s) = timed(&checksum_config());
        let ((naive, trace), naive_s) = timed(&naive_config);
        assert_eq!(
            Some(trace_checksum(&trace)),
            flat.trace_checksum,
            "{label}: event streams diverged between the heap and calendar cores"
        );
        assert_eq!(naive.makespan, flat.makespan, "{label}");
        assert_eq!(naive.total_loads, flat.total_loads, "{label}");
        let per_gpu = |r: &RunReport| r.per_gpu.iter().map(|g| g.tasks).collect::<Vec<_>>();
        assert_eq!(per_gpu(&naive), per_gpu(&flat), "{label}");
        if ts.num_tasks() >= 100_000 {
            let speedup = naive_s / flat_s;
            assert!(
                speedup >= ENGINE_SPEEDUP_FLOOR,
                "{label}: flat core only {speedup:.2}x faster than the naive core, \
                 floor {ENGINE_SPEEDUP_FLOOR}x"
            );
        }
    }
}
