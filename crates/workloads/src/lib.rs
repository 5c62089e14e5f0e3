//! # memsched-workloads
//!
//! Generators for every application scenario of the paper's evaluation
//! (§V-A):
//!
//! * [`gemm_2d`] — 2D blocked matrix multiplication, natural row-major
//!   submission order (Figures 3–8);
//! * [`gemm_2d_random`] — the same tasks in a randomized submission order
//!   (Figure 9);
//! * [`gemm_3d`] — 3D blocked matrix multiplication (Figure 10), plus the
//!   three-input variant [`gemm_3d_with_c`];
//! * [`cholesky`] — tiled Cholesky kernels with dependencies removed
//!   (Figure 11);
//! * [`sparse_2d`] — 2 %-dense 2D multiplication (Figures 12–13).
//!
//! All generators are deterministic (seeded where randomness is involved)
//! and calibrated so that working-set sizes line up with the paper's
//! x-axes (see [`constants`]).

#![warn(missing_docs)]

mod cholesky;
pub mod constants;
mod gemm;
pub mod prefix;
mod sparse;
pub mod traffic;

pub use cholesky::{cholesky, cholesky_task_count, cholesky_with_kinds, CholeskyKernel};
pub use gemm::{gemm_2d, gemm_2d_random, gemm_3d, gemm_3d_with_c};
pub use prefix::{prefix_tree, PrefixConfig};
pub use sparse::{sparse_2d, sparse_2d_paper};
pub use traffic::{
    assign_classes, closed_loop_arrivals, deadline_stamps, open_loop_arrivals, ArrivalPattern,
    TrafficGen,
};

use memsched_model::TaskSet;

/// A named workload, as used by the experiment harness and tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// 2D blocked matrix multiplication with `n×n` tasks.
    Gemm2d {
        /// Grid dimension `N`.
        n: usize,
    },
    /// Randomized-order 2D multiplication.
    Gemm2dRandom {
        /// Grid dimension `N`.
        n: usize,
        /// Shuffle seed.
        seed: u64,
    },
    /// 3D blocked matrix multiplication with `n³` tasks.
    Gemm3d {
        /// Grid dimension `N`.
        n: usize,
    },
    /// De-dependencied tiled Cholesky over `n×n` tiles.
    Cholesky {
        /// Tile-grid dimension `N`.
        n: usize,
    },
    /// Sparse 2D multiplication.
    Sparse2d {
        /// Grid dimension `N`.
        n: usize,
        /// Fraction of tasks kept.
        density: f64,
        /// Selection seed.
        seed: u64,
    },
    /// Prefix-tree serving workload (shared-prefix requests; see
    /// [`prefix`]).
    Prefix {
        /// Full tree/traffic configuration.
        cfg: PrefixConfig,
    },
}

impl Workload {
    /// Instantiate the workload into a [`TaskSet`].
    pub fn generate(&self) -> TaskSet {
        match *self {
            Workload::Gemm2d { n } => gemm_2d(n),
            Workload::Gemm2dRandom { n, seed } => gemm_2d_random(n, seed),
            Workload::Gemm3d { n } => gemm_3d(n),
            Workload::Cholesky { n } => cholesky(n),
            Workload::Sparse2d { n, density, seed } => sparse_2d(n, density, seed),
            Workload::Prefix { cfg } => prefix_tree(&cfg),
        }
    }

    /// Short label used in experiment output.
    pub fn label(&self) -> String {
        match *self {
            Workload::Gemm2d { n } => format!("gemm2d(n={n})"),
            Workload::Gemm2dRandom { n, seed } => format!("gemm2d-random(n={n},seed={seed})"),
            Workload::Gemm3d { n } => format!("gemm3d(n={n})"),
            Workload::Cholesky { n } => format!("cholesky(n={n})"),
            Workload::Sparse2d { n, density, seed } => {
                format!("sparse2d(n={n},density={density},seed={seed})")
            }
            Workload::Prefix { cfg } => format!(
                "prefix(depth={},fanout={},tasks={},seed={})",
                cfg.depth, cfg.fanout, cfg.tasks, cfg.seed
            ),
        }
    }
}

/// The `scale` preset: 2D/3D GEMM instances well past the paper's figure
/// sizes, where the per-decision candidate scan dominates a naive
/// scheduler's cost. The release-mode tier of `tests/differential_naive.rs`
/// runs the naive and indexed prepare and hot paths on it. Quick mode
/// keeps a full naive-scan run in CI-friendly time.
pub fn scale_preset(quick: bool) -> Vec<Workload> {
    if quick {
        vec![Workload::Gemm2d { n: 20 }, Workload::Gemm3d { n: 6 }]
    } else {
        vec![Workload::Gemm2d { n: 64 }, Workload::Gemm3d { n: 10 }]
    }
}

/// The `scale_xl` tier: engine-bound instances of 10⁵ and 10⁶ tasks
/// (`gemm_3d(47)` ≈ 1.04 × 10⁵, `gemm_3d(100)` = 10⁶) used by the
/// checksum-mode trace and engine speedup tests
/// (`tests/engine_scale_checksums.rs`). Where [`scale_preset`] stresses the
/// per-decision scheduler scans, this tier stresses the engine core
/// itself — the event queue, the residency bookkeeping, and the trace
/// sink. 3D GEMM keeps the per-datum consumer fan-out at `n` (≈ m^⅓)
/// instead of 2D's m^½, so residency-cache maintenance stays subordinate
/// to the event loop at a million tasks. Quick mode (10⁴ and 10⁵) keeps
/// a full run in CI-friendly time.
pub fn scale_xl_preset(quick: bool) -> Vec<Workload> {
    if quick {
        vec![Workload::Gemm3d { n: 22 }, Workload::Gemm3d { n: 47 }]
    } else {
        vec![Workload::Gemm3d { n: 47 }, Workload::Gemm3d { n: 100 }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_preset_is_larger_than_figure_sizes() {
        for (quick, floor) in [(true, 200), (false, 1000)] {
            for w in scale_preset(quick) {
                let ts = w.generate();
                assert!(
                    ts.num_tasks() >= floor,
                    "{} too small for the scale tier",
                    w.label()
                );
            }
        }
    }

    #[test]
    fn scale_xl_preset_reaches_task_floors() {
        // Quick: 10⁴ and 10⁵; full: 10⁵ and 10⁶ (the million-task member
        // is checked by n³ arithmetic instead of generating it here).
        let quick = scale_xl_preset(true);
        let tasks: Vec<usize> = quick.iter().map(|w| w.generate().num_tasks()).collect();
        assert!(tasks[0] >= 10_000 && tasks[0] < 100_000, "{tasks:?}");
        assert!(tasks[1] >= 100_000, "{tasks:?}");
        let full = scale_xl_preset(false);
        assert_eq!(full[0], Workload::Gemm3d { n: 47 }); // 103,823 tasks
        assert_eq!(full[1], Workload::Gemm3d { n: 100 }); // 10⁶ tasks
    }

    #[test]
    fn workload_enum_generates_all_scenarios() {
        let cases = [
            Workload::Gemm2d { n: 4 },
            Workload::Gemm2dRandom { n: 4, seed: 1 },
            Workload::Gemm3d { n: 3 },
            Workload::Cholesky { n: 4 },
            Workload::Sparse2d {
                n: 10,
                density: 0.1,
                seed: 2,
            },
        ];
        for w in cases {
            let ts = w.generate();
            assert!(ts.num_tasks() > 0, "{} generated no tasks", w.label());
            assert!(!w.label().is_empty());
        }
    }
}
