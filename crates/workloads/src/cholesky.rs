//! Tasks from a tiled Cholesky decomposition with the dependencies removed
//! (§V-F / Figure 11).
//!
//! The tiled right-looking Cholesky of an `n×n`-tile symmetric matrix
//! produces, at step `k`:
//!
//! * `POTRF(k)` — factor the diagonal tile `A_kk`;
//! * `TRSM(i,k)` for `i > k` — solve against `A_kk`, reading `A_ik`;
//! * `SYRK(i,k)` for `i > k` — update `A_ii` with `A_ik`;
//! * `GEMM(i,j,k)` for `i > j > k` — update `A_ij` with `A_ik` and `A_jk`.
//!
//! As in the paper we strip the inter-task dependencies and keep only the
//! input-data sharing: tiles are read-only data items and tasks are
//! independent. GEMM tasks have **three** inputs, which is what makes this
//! workload exercise the `3inputs` DARTS variant; the sheer task count
//! (`Θ(n³)`) is what motivates the `OPTI` variant.

use crate::constants::{cholesky_flops, TILE_BYTES};
use memsched_model::{DataId, TaskSet, TaskSetBuilder};

/// Kind of Cholesky kernel, exposed for tests and trace labelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CholeskyKernel {
    /// Diagonal-tile factorization.
    Potrf,
    /// Triangular solve of a sub-diagonal tile.
    Trsm,
    /// Symmetric rank-b update of a diagonal tile.
    Syrk,
    /// General update of a sub-diagonal tile.
    Gemm,
}

/// Tiled-Cholesky task set over an `n×n` tile grid (lower triangle:
/// `n(n+1)/2` tile data items).
pub fn cholesky(n: usize) -> TaskSet {
    cholesky_with_kinds(n).0
}

/// As [`cholesky`], also returning the kernel kind of every task in
/// submission order.
pub fn cholesky_with_kinds(n: usize) -> (TaskSet, Vec<CholeskyKernel>) {
    assert!(n > 0, "need at least a 1x1 tile grid");
    let mut b = TaskSetBuilder::new();
    // Lower-triangle tiles, indexed A(i, j) with i >= j.
    let mut tile = vec![vec![DataId(0); n]; n];
    for (i, row) in tile.iter_mut().enumerate() {
        for cell in row.iter_mut().take(i + 1) {
            *cell = b.add_data(TILE_BYTES);
        }
    }
    let mut kinds = Vec::new();
    for k in 0..n {
        b.add_task(&[tile[k][k]], cholesky_flops::POTRF);
        kinds.push(CholeskyKernel::Potrf);
        for i in (k + 1)..n {
            b.add_task(&[tile[i][k], tile[k][k]], cholesky_flops::TRSM);
            kinds.push(CholeskyKernel::Trsm);
        }
        for i in (k + 1)..n {
            b.add_task(&[tile[i][i], tile[i][k]], cholesky_flops::SYRK);
            kinds.push(CholeskyKernel::Syrk);
            for j in (k + 1)..i {
                b.add_task(&[tile[i][j], tile[i][k], tile[j][k]], cholesky_flops::GEMM);
                kinds.push(CholeskyKernel::Gemm);
            }
        }
    }
    (b.build(), kinds)
}

/// Number of tasks of a tiled Cholesky over `n×n` tiles:
/// `n` POTRF + `n(n−1)/2` TRSM + `n(n−1)/2` SYRK + `n(n−1)(n−2)/6` GEMM.
pub fn cholesky_task_count(n: usize) -> usize {
    let t = n * n.saturating_sub(1) / 2;
    n + 2 * t + n * n.saturating_sub(1) * n.saturating_sub(2) / 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::TaskId;

    #[test]
    fn counts_match_closed_form() {
        for n in 1..=8 {
            let (ts, kinds) = cholesky_with_kinds(n);
            assert_eq!(ts.num_tasks(), cholesky_task_count(n), "n = {n}");
            assert_eq!(kinds.len(), ts.num_tasks());
            assert_eq!(ts.num_data(), n * (n + 1) / 2);
        }
    }

    #[test]
    fn kernel_input_arity() {
        let (ts, kinds) = cholesky_with_kinds(5);
        for (t, kind) in ts.tasks().zip(kinds.iter()) {
            let arity = ts.inputs(t).len();
            match kind {
                CholeskyKernel::Potrf => assert_eq!(arity, 1),
                CholeskyKernel::Trsm | CholeskyKernel::Syrk => assert_eq!(arity, 2),
                CholeskyKernel::Gemm => assert_eq!(arity, 3),
            }
        }
        assert_eq!(ts.max_inputs_per_task(), 3);
    }

    #[test]
    fn first_tasks_of_n3_are_the_k0_step() {
        let (ts, kinds) = cholesky_with_kinds(3);
        // POTRF(0), TRSM(1,0), TRSM(2,0), SYRK(1,0), GEMM handled per i loop:
        assert_eq!(kinds[0], CholeskyKernel::Potrf);
        assert_eq!(kinds[1], CholeskyKernel::Trsm);
        assert_eq!(kinds[2], CholeskyKernel::Trsm);
        assert_eq!(kinds[3], CholeskyKernel::Syrk);
        // POTRF(0) reads the A_00 tile only.
        assert_eq!(ts.inputs(TaskId(0)), &[0]);
    }

    #[test]
    fn gemm_tasks_dominate_for_large_n() {
        let (ts, kinds) = cholesky_with_kinds(20);
        let gemms = kinds.iter().filter(|k| **k == CholeskyKernel::Gemm).count();
        assert!(gemms * 2 > ts.num_tasks(), "GEMM should dominate");
    }

    #[test]
    fn flops_are_heterogeneous() {
        let (ts, kinds) = cholesky_with_kinds(4);
        for (t, kind) in ts.tasks().zip(kinds.iter()) {
            let f = ts.flops(t);
            match kind {
                CholeskyKernel::Potrf => assert_eq!(f, cholesky_flops::POTRF),
                CholeskyKernel::Trsm => assert_eq!(f, cholesky_flops::TRSM),
                CholeskyKernel::Syrk => assert_eq!(f, cholesky_flops::SYRK),
                CholeskyKernel::Gemm => assert_eq!(f, cholesky_flops::GEMM),
            }
        }
    }
}
