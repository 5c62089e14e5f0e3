//! Per-figure experiment definitions (§V, Figures 3–13).
//!
//! Each function returns the [`FigureSpec`] that regenerates one figure of
//! the paper: the same workload family, GPU count, memory clamp and
//! scheduler set, swept over working-set sizes straddling the paper's
//! reference lines ("B fits in (cumulated) memory", "A and B fit"). Grid
//! sizes are chosen so the sweeps complete in minutes on a laptop while
//! covering both the unconstrained and the memory-starved regimes; the
//! quadratic-time mHFP packing is only run on small working sets, exactly
//! as the paper only reports mHFP "for a few working set sizes".

use crate::harness::{FigureSpec, Metric, SweepPoint};
use memsched_platform::{FaultPlan, PlatformSpec};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::Workload;

use NamedScheduler as S;

/// Working-set sizes (task-grid N) used by the single-GPU 2D sweeps:
/// N = 17 puts "A and B fit" (500 MB) behind us, N = 35 crosses "B fits"
/// (1 000 MB working set).
const GEMM2D_1GPU_N: &[usize] = &[5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 60, 70];
/// mHFP's quadratic packing is only run up to this N (≈ 900 tasks).
const MHFP_MAX_N: usize = 30;

/// 2-GPU sweeps reach 4 000 MB like Figures 5–7 (N = 140 ⇒ ≈ 4 100 MB).
const GEMM2D_2GPU_N: &[usize] = &[5, 15, 25, 35, 50, 65, 80, 100, 120, 140];
/// 4-GPU sweep of Figure 8 (up to ≈ 5 000 MB, past the "B fits in
/// cumulated memory" line at ≈ 4 000 MB).
const GEMM2D_4GPU_N: &[usize] = &[10, 25, 40, 55, 70, 90, 110, 140, 170];
/// The exhaustive-scan DARTS variants stop here in Figure 8; beyond, only
/// the thresholded variant runs (the paper's fix for the same problem).
const DARTS_EXHAUSTIVE_MAX_N: usize = 140;
/// Randomized-order sweep of Figure 9 (up to ≈ 1 700 MB).
const GEMM2D_RAND_N: &[usize] = &[5, 10, 15, 20, 25, 30, 35, 40, 50, 60];
/// 3D sweep of Figure 10 (WS = 2·n²·3.7 MB; n = 24 ⇒ ≈ 4 200 MB).
const GEMM3D_N: &[usize] = &[6, 8, 10, 12, 14, 16, 20, 24];
/// Cholesky tile grids of Figure 11 (WS = n(n+1)/2·3.7 MB).
const CHOLESKY_N: &[usize] = &[8, 12, 16, 20, 26, 32, 40, 48];
/// Sparse sweeps of Figures 12–13 (2 % density).
const SPARSE_N: &[usize] = &[40, 80, 120, 160, 220, 280, 360, 440];

fn gemm2d_points(sizes: &[usize], mut base: Vec<NamedScheduler>, with_mhfp: bool) -> Vec<SweepPoint> {
    base.sort_by_key(|s| format!("{s:?}"));
    sizes
        .iter()
        .map(|&n| {
            let mut schedulers = base.clone();
            if with_mhfp && n <= MHFP_MAX_N {
                schedulers.push(S::Mhfp);
            }
            SweepPoint {
                workload: Workload::Gemm2d { n },
                schedulers,
            }
        })
        .collect()
}

/// Figure 3: GFlop/s, 2D multiplication, 1 V100, 500 MB.
pub fn fig03() -> FigureSpec {
    FigureSpec {
        id: "fig03",
        title: "2D matrix multiplication, 1 GPU — throughput",
        spec: PlatformSpec::v100(1),
        points: gemm2d_points(
            GEMM2D_1GPU_N,
            vec![S::Eager, S::Dmdar, S::Darts, S::DartsLuf],
            true,
        ),
        metric: Metric::Gflops,
        faults: FaultPlan::none(),
    }
}

/// Figure 4: data transfers, 2D multiplication, 1 V100, 500 MB.
pub fn fig04() -> FigureSpec {
    FigureSpec {
        id: "fig04",
        title: "2D matrix multiplication, 1 GPU — data transfers",
        spec: PlatformSpec::v100(1),
        points: gemm2d_points(
            GEMM2D_1GPU_N,
            vec![S::Eager, S::Dmdar, S::Darts, S::DartsLuf],
            true,
        ),
        metric: Metric::TransfersMb,
        faults: FaultPlan::none(),
    }
}

/// Figure 5: GFlop/s, 2D multiplication, 2 V100s (simulation — our
/// environment is always a simulator; the "no sched. time" series is the
/// `gflops` column of the CSV).
pub fn fig05() -> FigureSpec {
    FigureSpec {
        id: "fig05",
        title: "2D matrix multiplication, 2 GPUs (simulation)",
        spec: PlatformSpec::v100(2),
        points: gemm2d_points(
            GEMM2D_2GPU_N,
            vec![S::Eager, S::Dmdar, S::Darts, S::DartsLuf, S::HmetisR],
            true,
        ),
        metric: Metric::Gflops,
        faults: FaultPlan::none(),
    }
}

/// Figure 6: GFlop/s, 2D multiplication, 2 V100s ("real": scheduling and
/// partitioning wall time included — the `gflops_with_sched` column; the
/// "hMETIS+R no part. time" series is the `gflops` column).
pub fn fig06() -> FigureSpec {
    FigureSpec {
        id: "fig06",
        title: "2D matrix multiplication, 2 GPUs (scheduling time charged)",
        spec: PlatformSpec::v100(2),
        points: gemm2d_points(
            GEMM2D_2GPU_N,
            vec![S::Eager, S::Dmdar, S::Darts, S::DartsLuf, S::HmetisR],
            false,
        ),
        metric: Metric::Gflops,
        faults: FaultPlan::none(),
    }
}

/// Figure 7: data transfers, 2D multiplication, 2 V100s.
pub fn fig07() -> FigureSpec {
    FigureSpec {
        id: "fig07",
        title: "2D matrix multiplication, 2 GPUs — data transfers",
        spec: PlatformSpec::v100(2),
        points: gemm2d_points(
            GEMM2D_2GPU_N,
            vec![S::Eager, S::Dmdar, S::Darts, S::DartsLuf, S::HmetisR],
            false,
        ),
        metric: Metric::TransfersMb,
        faults: FaultPlan::none(),
    }
}

/// Figure 8: GFlop/s, 2D multiplication, 4 V100s, with the thresholded
/// DARTS variant the paper adds for the largest working sets.
pub fn fig08() -> FigureSpec {
    let points = GEMM2D_4GPU_N
        .iter()
        .map(|&n| {
            let mut schedulers = vec![
                S::Eager,
                S::Dmdar,
                S::DartsLufThreshold(32),
                S::HmetisR,
            ];
            if n <= DARTS_EXHAUSTIVE_MAX_N {
                schedulers.push(S::Darts);
                schedulers.push(S::DartsLuf);
            }
            SweepPoint {
                workload: Workload::Gemm2d { n },
                schedulers,
            }
        })
        .collect();
    FigureSpec {
        id: "fig08",
        title: "2D matrix multiplication, 4 GPUs",
        spec: PlatformSpec::v100(4),
        points,
        metric: Metric::Gflops,
        faults: FaultPlan::none(),
    }
}

/// Figure 9: GFlop/s, randomized-order 2D multiplication, 2 V100s.
pub fn fig09() -> FigureSpec {
    let points = GEMM2D_RAND_N
        .iter()
        .map(|&n| SweepPoint {
            workload: Workload::Gemm2dRandom { n, seed: 42 },
            schedulers: vec![S::Eager, S::Dmdar, S::Darts, S::DartsLuf, S::HmetisR],
        })
        .collect();
    FigureSpec {
        id: "fig09",
        title: "2D matrix multiplication, randomized task order, 2 GPUs",
        spec: PlatformSpec::v100(2),
        points,
        metric: Metric::Gflops,
        faults: FaultPlan::none(),
    }
}

/// Figure 10: GFlop/s, 3D multiplication, 4 V100s, with the 3inputs
/// variant.
pub fn fig10() -> FigureSpec {
    let points = GEMM3D_N
        .iter()
        .map(|&n| SweepPoint {
            workload: Workload::Gemm3d { n },
            schedulers: vec![
                S::Eager,
                S::Dmdar,
                S::DartsLuf,
                S::DartsLuf3,
                S::HmetisR,
            ],
        })
        .collect();
    FigureSpec {
        id: "fig10",
        title: "3D matrix multiplication, 4 GPUs",
        spec: PlatformSpec::v100(4),
        points,
        metric: Metric::Gflops,
        faults: FaultPlan::none(),
    }
}

/// Figure 11: GFlop/s, Cholesky task set, 4 V100s, with the OPTI variants
/// the paper introduces for its huge task counts. The exhaustive-scan
/// DARTS variants are only run on the smaller tile grids — on the large
/// ones their scheduling time is prohibitive, which is precisely the
/// finding that motivates OPTI (§V-F).
pub fn fig11() -> FigureSpec {
    let points = CHOLESKY_N
        .iter()
        .map(|&n| {
            let mut schedulers = vec![S::Eager, S::Dmdar, S::DartsLufOpti3, S::HmetisR];
            if n <= 32 {
                schedulers.push(S::DartsLuf);
                schedulers.push(S::DartsLuf3);
            }
            SweepPoint {
                workload: Workload::Cholesky { n },
                schedulers,
            }
        })
        .collect();
    FigureSpec {
        id: "fig11",
        title: "Cholesky task set, 4 GPUs",
        spec: PlatformSpec::v100(4),
        points,
        metric: Metric::Gflops,
        faults: FaultPlan::none(),
    }
}

/// Figure 12: GFlop/s, sparse 2D multiplication (2 % density), 4 V100s,
/// 500 MB memory clamp.
pub fn fig12() -> FigureSpec {
    let points = SPARSE_N
        .iter()
        .map(|&n| SweepPoint {
            workload: Workload::Sparse2d {
                n,
                density: 0.02,
                seed: 7,
            },
            schedulers: vec![
                S::Eager,
                S::Dmdar,
                S::DartsLuf,
                S::DartsLufOpti,
                S::HmetisR,
            ],
        })
        .collect();
    FigureSpec {
        id: "fig12",
        title: "sparse 2D matrix multiplication, 4 GPUs",
        spec: PlatformSpec::v100(4),
        points,
        metric: Metric::Gflops,
        faults: FaultPlan::none(),
    }
}

/// Figure 13: as Figure 12 but without the memory limitation (32 GB per
/// GPU).
pub fn fig13() -> FigureSpec {
    let mut fig = fig12();
    fig.id = "fig13";
    fig.title = "sparse 2D matrix multiplication, 4 GPUs, 32 GB (no memory limit)";
    fig.spec = PlatformSpec::v100_unlimited(4);
    fig
}

/// Every figure, in order.
pub fn all_figures() -> Vec<FigureSpec> {
    vec![
        fig03(),
        fig04(),
        fig05(),
        fig06(),
        fig07(),
        fig08(),
        fig09(),
        fig10(),
        fig11(),
        fig12(),
        fig13(),
    ]
}

/// A reduced version of `fig` for smoke tests and `--quick` runs: keeps roughly
/// every other sweep point, dropping the largest sizes.
pub fn quick(fig: FigureSpec) -> FigureSpec {
    let keep = (fig.points.len() / 2).clamp(2, 4);
    FigureSpec {
        points: fig.points.into_iter().take(keep).collect(),
        ..fig
    }
}

/// `fig` with every mHFP entry running the paper's original quadratic
/// packing in `prepare` (`--paper-timing`): the produced queues, and
/// therefore every simulated decision and transfer count, are identical —
/// only the measured scheduling time reverts to the published behaviour,
/// which matters for the figures that charge prepare wall time to the
/// makespan (Figure 6).
pub fn paper_timing(mut fig: FigureSpec) -> FigureSpec {
    for p in &mut fig.points {
        for s in &mut p.schedulers {
            if *s == S::Mhfp {
                *s = S::MhfpPaperTiming;
            }
        }
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_have_distinct_ids_and_points() {
        let figs = all_figures();
        assert_eq!(figs.len(), 11);
        let mut ids: Vec<_> = figs.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 11, "figure ids must be unique");
        for f in &figs {
            assert!(!f.points.is_empty(), "{} has no sweep points", f.id);
            for p in &f.points {
                assert!(!p.schedulers.is_empty());
            }
        }
    }

    #[test]
    fn mhfp_only_runs_on_small_working_sets() {
        let fig = fig03();
        for p in &fig.points {
            let n = match p.workload {
                Workload::Gemm2d { n } => n,
                _ => unreachable!(),
            };
            let has_mhfp = p.schedulers.contains(&NamedScheduler::Mhfp);
            assert_eq!(has_mhfp, n <= MHFP_MAX_N, "n = {n}");
        }
    }

    #[test]
    fn fig13_lifts_the_memory_clamp() {
        assert_eq!(fig12().spec.memory_bytes, 500_000_000);
        assert_eq!(fig13().spec.memory_bytes, 32_000_000_000);
    }

    #[test]
    fn quick_figures_shrink_the_sweep() {
        let q = quick(fig05());
        assert!(q.points.len() <= 4);
        assert_eq!(q.id, "fig05");
    }

    #[test]
    fn paper_timing_swaps_every_mhfp_entry() {
        let fig = paper_timing(fig03());
        let swapped: usize = fig
            .points
            .iter()
            .flat_map(|p| &p.schedulers)
            .filter(|s| **s == NamedScheduler::MhfpPaperTiming)
            .count();
        assert!(swapped > 0, "fig03 must carry mHFP points");
        for p in &fig.points {
            assert!(
                !p.schedulers.contains(&NamedScheduler::Mhfp),
                "plain mHFP left behind"
            );
        }
        // Figures without mHFP pass through unchanged.
        let untouched = paper_timing(fig09());
        assert_eq!(untouched.points.len(), fig09().points.len());
        for p in &untouched.points {
            assert!(!p.schedulers.contains(&NamedScheduler::MhfpPaperTiming));
        }
    }

    #[test]
    fn smoke_run_quick_fig03() {
        // End-to-end: run a reduced Figure 3 and verify the qualitative
        // ordering at the smallest sizes (everything near roofline).
        let q = quick(fig03());
        let rows = q.run().expect("fault-free run");
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.gflops > 0.0, "{}: no throughput", r.scheduler);
        }
    }
}
