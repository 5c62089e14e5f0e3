//! Sparse 2D blocked matrix multiplication (§V-G / Figures 12–13).
//!
//! The paper removes 98 % of the tasks from the 2D scenario, producing a
//! workload with a much larger communication-to-computation ratio. Data
//! items are kept even when sparsity leaves them unconsumed, so the
//! working-set axis matches the dense scenario.

use crate::constants::{GEMM2D_DATA_BYTES, GEMM2D_TASK_FLOPS};
use memsched_model::{TaskSet, TaskSetBuilder};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Sparse 2D multiplication: keep `density` of the `n²` tasks of
/// [`crate::gemm_2d`], chosen uniformly at random (deterministic per
/// `seed`), submitted in row-major order.
///
/// The paper uses `density = 0.02` (98 % removed); see [`sparse_2d_paper`].
pub fn sparse_2d(n: usize, density: f64, seed: u64) -> TaskSet {
    assert!(n > 0, "need at least a 1x1 task grid");
    assert!(
        (0.0..=1.0).contains(&density),
        "density must be within [0, 1]"
    );
    let mut b = TaskSetBuilder::new();
    let rows: Vec<_> = (0..n).map(|_| b.add_data(GEMM2D_DATA_BYTES)).collect();
    let cols: Vec<_> = (0..n).map(|_| b.add_data(GEMM2D_DATA_BYTES)).collect();

    let mut cells: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    cells.shuffle(&mut rng);
    // Keep at least one task so that the task set is non-empty.
    let keep = ((n * n) as f64 * density).round().max(1.0) as usize;
    let mut kept = cells[..keep.min(cells.len())].to_vec();
    // Row-major submission order, like the dense scenario.
    kept.sort_unstable();
    for (i, j) in kept {
        b.add_task(&[rows[i], cols[j]], GEMM2D_TASK_FLOPS);
    }
    b.build()
}

/// The paper's sparse scenario: 2 % density.
pub fn sparse_2d_paper(n: usize, seed: u64) -> TaskSet {
    sparse_2d(n, 0.02, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_requested_fraction() {
        let ts = sparse_2d(50, 0.02, 1);
        assert_eq!(ts.num_tasks(), 50); // 2% of 2500
        assert_eq!(ts.num_data(), 100); // all data kept
    }

    #[test]
    fn density_one_is_dense() {
        let ts = sparse_2d(10, 1.0, 3);
        assert_eq!(ts.num_tasks(), 100);
    }

    #[test]
    fn at_least_one_task_survives() {
        let ts = sparse_2d(5, 0.0, 9);
        assert_eq!(ts.num_tasks(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sparse_2d(30, 0.1, 11);
        let b = sparse_2d(30, 0.1, 11);
        assert_eq!(a.num_tasks(), b.num_tasks());
        for t in a.tasks() {
            assert_eq!(a.inputs(t), b.inputs(t));
        }
        let c = sparse_2d(30, 0.1, 12);
        let same = a
            .tasks()
            .zip(c.tasks())
            .all(|(x, y)| a.inputs(x) == c.inputs(y));
        assert!(!same, "different seeds should select different tasks");
    }

    #[test]
    fn working_set_matches_dense_axis() {
        let dense = crate::gemm_2d(40);
        let sparse = sparse_2d_paper(40, 5);
        assert_eq!(dense.working_set_bytes(), sparse.working_set_bytes());
    }

    #[test]
    fn submission_order_is_row_major() {
        let ts = sparse_2d(20, 0.1, 2);
        let mut last = None;
        for t in ts.tasks() {
            let ins = ts.inputs(t);
            let (row, col) = (ins[0], ins[1] - 20);
            let key = (row, col);
            if let Some(prev) = last {
                assert!(key > prev, "tasks must be sorted row-major");
            }
            last = Some(key);
        }
    }
}
