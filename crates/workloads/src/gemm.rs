//! 2D and 3D blocked matrix-multiplication task sets (§V-A).
//!
//! The paper's main scenario decomposes `C = A × B` into tasks that each
//! multiply one block-row of `A` with one block-column of `B`. The input
//! data are therefore the `N` block-rows of `A` and the `N` block-columns
//! of `B` (2N data items), and there are `N²` independent tasks, submitted
//! row by row. The 3D variant decomposes the product into block×block
//! tasks `A_ik · B_kj` (`N³` tasks over `2N²` tile inputs).

use crate::constants::{GEMM2D_DATA_BYTES, GEMM2D_TASK_FLOPS, TILE_BYTES, TILE_GEMM_FLOPS};
use memsched_model::{TaskSet, TaskSetBuilder};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// 2D blocked matrix multiplication: `n²` tasks over `2n` data items,
/// submitted in natural (row-major) order.
///
/// Task `T(i·n + j)` reads block-row `i` of `A` (data id `i`) and
/// block-column `j` of `B` (data id `n + j`).
pub fn gemm_2d(n: usize) -> TaskSet {
    gemm_2d_ordered(n, None)
}

/// 2D blocked matrix multiplication with the submission order randomly
/// shuffled (Figure 9). Deterministic for a given `seed`.
pub fn gemm_2d_random(n: usize, seed: u64) -> TaskSet {
    gemm_2d_ordered(n, Some(seed))
}

fn gemm_2d_ordered(n: usize, shuffle_seed: Option<u64>) -> TaskSet {
    assert!(n > 0, "need at least a 1x1 task grid");
    let mut b = TaskSetBuilder::new();
    let rows: Vec<_> = (0..n).map(|_| b.add_data(GEMM2D_DATA_BYTES)).collect();
    let cols: Vec<_> = (0..n).map(|_| b.add_data(GEMM2D_DATA_BYTES)).collect();

    let mut cells: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    if let Some(seed) = shuffle_seed {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        cells.shuffle(&mut rng);
    }
    for (i, j) in cells {
        b.add_task(&[rows[i], cols[j]], GEMM2D_TASK_FLOPS);
    }
    b.build()
}

/// 3D blocked matrix multiplication: `n³` tasks over `2n²` tile inputs,
/// submitted in `(i, j, k)` lexicographic order (Figure 10).
///
/// Task `(i, j, k)` reads tile `A_ik` (data id `i·n + k`) and tile `B_kj`
/// (data id `n² + k·n + j`). The final summation into `C` is ignored, as
/// in the paper ("we do not consider the final summation to concentrate on
/// the computationally-intensive tasks without dependencies").
pub fn gemm_3d(n: usize) -> TaskSet {
    assert!(n > 0, "need at least a 1x1x1 task grid");
    let mut b = TaskSetBuilder::new();
    let a: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    let bt: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                b.add_task(&[a[i * n + k], bt[k * n + j]], TILE_GEMM_FLOPS);
            }
        }
    }
    b.build()
}

/// 3D blocked matrix multiplication where each task additionally reads the
/// output tile `C_ij` it accumulates into — a three-inputs-per-task
/// workload exercising the DARTS `3inputs` variant beyond its fallback
/// role.
pub fn gemm_3d_with_c(n: usize) -> TaskSet {
    assert!(n > 0, "need at least a 1x1x1 task grid");
    let mut b = TaskSetBuilder::new();
    let a: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    let bt: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    let c: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                b.add_task(
                    &[a[i * n + k], bt[k * n + j], c[i * n + j]],
                    TILE_GEMM_FLOPS,
                );
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::{DataId, TaskId};

    #[test]
    fn gemm_2d_shape() {
        let ts = gemm_2d(4);
        assert_eq!(ts.num_tasks(), 16);
        assert_eq!(ts.num_data(), 8);
        // T(1,2) = task 6 reads row 1 (D1) and col 2 (D6).
        assert_eq!(ts.inputs(TaskId(6)), &[1, 6]);
        // Every row is consumed by n tasks.
        assert_eq!(ts.consumers(DataId(0)).len(), 4);
        assert_eq!(ts.consumers(DataId(4)).len(), 4);
    }

    #[test]
    fn gemm_2d_working_set_matches_paper_axis() {
        // Paper: 5×5 tasks ↔ ~140 MB, 300×300 ↔ ~8 400 MB.
        let ws5 = gemm_2d(5).working_set_bytes() as f64 / 1e6;
        let ws300 = gemm_2d(300).working_set_bytes() as f64 / 1e6;
        assert!((ws5 - 140.0).abs() < 10.0, "ws5 = {ws5}");
        assert!((ws300 - 8400.0).abs() < 500.0, "ws300 = {ws300}");
    }

    #[test]
    fn gemm_2d_random_is_a_permutation() {
        let ts = gemm_2d(6);
        let tsr = gemm_2d_random(6, 42);
        assert_eq!(ts.num_tasks(), tsr.num_tasks());
        assert_eq!(ts.num_data(), tsr.num_data());
        assert_eq!(ts.total_flops(), tsr.total_flops());
        // Same multiset of input pairs, different order.
        let mut pairs: Vec<_> = tsr.tasks().map(|t| tsr.inputs(t).to_vec()).collect();
        let mut dense: Vec<_> = ts.tasks().map(|t| ts.inputs(t).to_vec()).collect();
        assert_ne!(pairs, dense, "seed 42 should actually shuffle");
        pairs.sort();
        dense.sort();
        assert_eq!(pairs, dense);
    }

    #[test]
    fn gemm_2d_random_is_deterministic() {
        let a = gemm_2d_random(8, 7);
        let b = gemm_2d_random(8, 7);
        for t in a.tasks() {
            assert_eq!(a.inputs(t), b.inputs(t));
        }
    }

    #[test]
    fn gemm_3d_shape() {
        let ts = gemm_3d(3);
        assert_eq!(ts.num_tasks(), 27);
        assert_eq!(ts.num_data(), 18);
        // Each A tile is read by n tasks (one per j).
        assert_eq!(ts.consumers(DataId(0)).len(), 3);
        // Task (0,0,1) = id 1 reads A_01 (D1) and B_10 (9 + 3).
        assert_eq!(ts.inputs(TaskId(1)), &[1, 12]);
    }

    #[test]
    fn gemm_3d_with_c_has_three_inputs() {
        let ts = gemm_3d_with_c(2);
        assert_eq!(ts.num_tasks(), 8);
        assert_eq!(ts.num_data(), 12);
        assert_eq!(ts.max_inputs_per_task(), 3);
        for t in ts.tasks() {
            assert_eq!(ts.inputs(t).len(), 3);
        }
    }

    #[test]
    fn flops_scale_with_grid() {
        let t4 = gemm_2d(4).total_flops();
        let t8 = gemm_2d(8).total_flops();
        assert!((t8 / t4 - 4.0).abs() < 1e-9);
    }
}
