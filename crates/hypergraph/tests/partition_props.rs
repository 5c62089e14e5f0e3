//! Property tests of the multilevel partitioner over random hypergraphs.

use memsched_hypergraph::*;
use proptest::prelude::*;

/// Random hypergraph: `nv` vertices, nets of 2–5 pins.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (4usize..40, 1usize..30).prop_flat_map(|(nv, nn)| {
        proptest::collection::vec(proptest::collection::vec(0..nv as u32, 2..=5), nn).prop_map(
            move |nets| {
                // Drop degenerate nets (all pins equal after dedup is fine —
                // Hypergraph dedups; single-pin nets are allowed but inert).
                Hypergraph::unit(nv, nets)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every vertex is assigned a label in 0..k and the reported quality
    /// matches a direct evaluation.
    #[test]
    fn labels_and_quality_consistent(hg in arb_hypergraph(), k in 1usize..5) {
        prop_assume!(hg.num_vertices() >= k);
        let cfg = PartitionConfig::for_parts(k).with_nruns(2).with_threads(1);
        let p = partition(&hg, &cfg);
        prop_assert_eq!(p.parts.len(), hg.num_vertices());
        prop_assert!(p.parts.iter().all(|&x| (x as usize) < k));
        let q = evaluate(&hg, &p.parts, k);
        prop_assert_eq!(q, p.quality);
    }

    /// More restarts never worsen the best connectivity-1.
    #[test]
    fn more_runs_never_worse(hg in arb_hypergraph()) {
        prop_assume!(hg.num_vertices() >= 2);
        let one = partition(&hg, &PartitionConfig::for_parts(2).with_nruns(1).with_threads(1));
        let four = partition(&hg, &PartitionConfig::for_parts(2).with_nruns(4).with_threads(1));
        prop_assert!(
            four.quality.connectivity_minus_one <= one.quality.connectivity_minus_one
        );
    }

    /// Connectivity-1 is bounded by Σ w(net)·(min(|pins|, k) − 1).
    #[test]
    fn connectivity_upper_bound(hg in arb_hypergraph(), k in 2usize..4) {
        prop_assume!(hg.num_vertices() >= k);
        let cfg = PartitionConfig::for_parts(k).with_nruns(1).with_threads(1);
        let p = partition(&hg, &cfg);
        let bound: u64 = (0..hg.num_nets())
            .map(|n| hg.nweight(n) * (hg.pins(n).len().min(k) as u64 - 1))
            .sum();
        prop_assert!(p.quality.connectivity_minus_one <= bound);
    }

    /// Bisection respects the requested tolerance on random inputs
    /// (weights are unit, so the cap is exact up to eps rounding).
    #[test]
    fn bisection_balance(hg in arb_hypergraph()) {
        prop_assume!(hg.num_vertices() >= 4);
        let total = hg.total_vweight();
        let (parts, _) = bisect(&hg, total / 2, total - total / 2, 0.1, 3);
        let w0: u64 = (0..hg.num_vertices())
            .filter(|&v| parts[v] == 0)
            .map(|v| hg.vweight(v))
            .sum();
        let cap = total / 2 + (total as f64 * 0.1) as u64 + 1;
        prop_assert!(w0 <= cap, "side 0 = {w0} > cap {cap}");
        prop_assert!(total - w0 <= cap, "side 1 = {} > cap {cap}", total - w0);
    }
}
