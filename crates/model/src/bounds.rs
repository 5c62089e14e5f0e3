//! Schedule-independent lower bounds on the two objectives of §III.
//!
//! These bounds are used by the test suite (no strategy may beat them) and
//! reported by the experiment harness to show how far each heuristic is
//! from optimal.

use crate::taskset::TaskSet;

/// Lower bound on Obj. 1 for `k` GPUs with uniform task durations:
/// `⌈m / K⌉` tasks on the most loaded GPU.
pub fn min_max_load(ts: &TaskSet, k: usize) -> usize {
    assert!(k > 0, "need at least one GPU");
    ts.num_tasks().div_ceil(k)
}

/// Lower bound on Obj. 2 for *any* schedule on *any* number of GPUs: every
/// data item with at least one consumer must be loaded at least once
/// somewhere (all data start in host memory only). Unconsumed data items
/// (possible in sparse workloads) never need to be loaded.
pub fn min_total_loads(ts: &TaskSet) -> u64 {
    ts.data().filter(|&d| !ts.consumers(d).is_empty()).count() as u64
}

/// Lower bound on the bytes that must cross the bus for any schedule:
/// each consumed data item crosses at least once.
pub fn min_total_load_bytes(ts: &TaskSet) -> u64 {
    ts.data()
        .filter(|&d| !ts.consumers(d).is_empty())
        .map(|d| ts.data_size(d))
        .sum()
}

/// Minimum makespan (seconds) on `k` identical GPUs of `gflops` GFlop/s
/// each, ignoring all transfers: `total_flops / (k · gflops · 1e9)`.
/// This is the "GFlop/s max" roofline of Figures 3–13.
pub fn compute_roofline_seconds(ts: &TaskSet, k: usize, gflops: f64) -> f64 {
    assert!(k > 0 && gflops > 0.0);
    ts.total_flops() / (k as f64 * gflops * 1e9)
}

/// The "PCI bus limit" line of Figure 4: the maximum number of bytes that
/// can cross a bus of `bandwidth` bytes/s during the compute-roofline
/// time. A strategy transferring more than this necessarily takes longer
/// than the optimal compute time.
pub fn pci_bus_limit_bytes(ts: &TaskSet, k: usize, gflops: f64, bandwidth: f64) -> f64 {
    compute_roofline_seconds(ts, k, gflops) * bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskset::figure1_example;

    #[test]
    fn max_load_bound_is_ceiling() {
        let ts = figure1_example();
        assert_eq!(min_max_load(&ts, 1), 9);
        assert_eq!(min_max_load(&ts, 2), 5);
        assert_eq!(min_max_load(&ts, 3), 3);
        assert_eq!(min_max_load(&ts, 4), 3);
    }

    #[test]
    fn load_bounds_count_all_data() {
        let ts = figure1_example();
        assert_eq!(min_total_loads(&ts), 6);
        assert_eq!(min_total_load_bytes(&ts), 6);
    }

    #[test]
    fn roofline_scales_with_gpus() {
        let ts = figure1_example(); // 9 flops total
        let t1 = compute_roofline_seconds(&ts, 1, 1e-9); // 1 flop/s
        let t2 = compute_roofline_seconds(&ts, 2, 1e-9);
        assert!((t1 - 9.0).abs() < 1e-12);
        assert!((t2 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn pci_limit_is_time_times_bandwidth() {
        let ts = figure1_example();
        let b = pci_bus_limit_bytes(&ts, 1, 1e-9, 2.0);
        assert!((b - 18.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        let ts = figure1_example();
        min_max_load(&ts, 0);
    }
}
