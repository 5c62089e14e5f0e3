//! K-way partitioning by recursive bisection, with random restarts.
//!
//! Mirrors the hMETIS configuration used in the paper (§IV-B): near-perfect
//! balance (`UBfactor = 1`), `Nruns = 20` random starts keeping the best
//! connectivity−1 result. Restarts run on a pool of at most
//! `PartitionConfig::threads` worker threads.

use crate::hg::{evaluate, Hypergraph, PartitionQuality};
use crate::multilevel::bisect;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of [`partition`].
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionConfig {
    /// Number of parts `K` (one per GPU).
    pub k: usize,
    /// Allowed imbalance as a fraction of the total weight added to each
    /// part's target (hMETIS `UBfactor`, as a fraction: 0.01 ≈ UBfactor 1).
    pub ub_factor: f64,
    /// Number of random restarts (hMETIS `Nruns`).
    pub nruns: usize,
    /// Base RNG seed; restart `i` uses `seed + i`.
    pub seed: u64,
    /// Most worker threads the restarts run on at once (the pool has
    /// `min(threads, nruns)` workers; 1 = sequential on the caller's
    /// thread).
    pub threads: usize,
    /// Use the original full-rebuild bisection. Decision-equivalent to the
    /// default indexed one; only the wall time differs.
    #[cfg(feature = "naive")]
    naive: bool,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            k: 2,
            ub_factor: 0.01,
            nruns: 20,
            seed: 0x5eed,
            threads: std::thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(1),
            #[cfg(feature = "naive")]
            naive: false,
        }
    }
}

impl PartitionConfig {
    /// Config for `k` parts with the paper's defaults.
    pub fn for_parts(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Builder: set the number of restarts.
    pub fn with_nruns(mut self, nruns: usize) -> Self {
        assert!(nruns >= 1, "need at least one run");
        self.nruns = nruns;
        self
    }

    /// Builder: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Builder: select the original full-rebuild bisection (the reference
    /// implementation the fast path is proven equivalent to).
    #[cfg(feature = "naive")]
    pub fn with_naive(mut self) -> Self {
        self.naive = true;
        self
    }
}

/// Result of [`partition`].
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// Part id (in `0..k`) per vertex.
    pub parts: Vec<u32>,
    /// Quality of the returned partition.
    pub quality: PartitionQuality,
}

/// Partition `hg` into `config.k` parts, minimizing connectivity−1 under
/// the balance constraint. Deterministic for a fixed config (restarts have
/// fixed seeds; ties resolve to the lowest restart index).
pub fn partition(hg: &Hypergraph, config: &PartitionConfig) -> Partitioning {
    assert!(config.k >= 1, "need at least one part");
    assert!(
        hg.num_vertices() >= config.k,
        "cannot split {} vertices into {} parts",
        hg.num_vertices(),
        config.k
    );
    if config.k == 1 {
        let parts = vec![0u32; hg.num_vertices()];
        let quality = evaluate(hg, &parts, 1);
        return Partitioning { parts, quality };
    }

    let bisect_fn: BisectFn = bisect;
    #[cfg(feature = "naive")]
    let bisect_fn: BisectFn = if config.naive {
        crate::multilevel::bisect_naive
    } else {
        bisect_fn
    };
    let run_once = |seed: u64| -> (Vec<u32>, u64) {
        let mut parts = vec![0u32; hg.num_vertices()];
        recursive_bisect(hg, config.k, config.ub_factor, seed, 0, &mut parts, bisect_fn);
        let cost = evaluate(hg, &parts, config.k).connectivity_minus_one;
        (parts, cost)
    };

    // Workers pull restart indices from a shared counter, so each sees
    // its indices in increasing order and keeps only its best
    // `(cost, index)`; the minimum over the workers' bests is the minimum
    // over all restarts, and the lowest index still wins ties. The
    // counter publishes no data (results come back through `join`), so
    // `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    #[cfg(test)]
    let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let worker = || {
        let mut best: Option<(u64, usize, Vec<u32>)> = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= config.nruns {
                return best;
            }
            #[cfg(test)]
            peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            let (parts, cost) = run_once(config.seed.wrapping_add(i as u64));
            #[cfg(test)]
            running.fetch_sub(1, Ordering::SeqCst);
            if best.as_ref().is_none_or(|b| cost < b.0) {
                best = Some((cost, i, parts));
            }
        }
    };
    let workers = config.threads.min(config.nruns);
    let best = if workers <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("restart worker panicked"))
                .min_by_key(|&(cost, i, _)| (cost, i))
        })
    };
    #[cfg(test)]
    tests::PEAK_RESTARTS.with(|p| p.set(peak.into_inner()));

    let (_, _, parts) = best.expect("nruns >= 1");
    let quality = evaluate(hg, &parts, config.k);
    Partitioning { parts, quality }
}

/// The bisection entry point used per recursion step (the fast [`bisect`]
/// or, under the `naive` feature, the reference `bisect_naive`).
type BisectFn = fn(&Hypergraph, u64, u64, f64, u64) -> (Vec<u32>, u64);

/// Recursively bisect the sub-hypergraph induced by the vertices currently
/// labelled `part_base`, producing labels `part_base..part_base + k`.
fn recursive_bisect(
    hg: &Hypergraph,
    k: usize,
    ub: f64,
    seed: u64,
    part_base: u32,
    parts: &mut [u32],
    bisect_fn: BisectFn,
) {
    if k <= 1 {
        return;
    }
    let members: Vec<u32> = (0..parts.len() as u32)
        .filter(|&v| parts[v as usize] == part_base)
        .collect();
    let sub = induce(hg, &members);
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let total = sub.total_vweight();
    let w0 = (total as u128 * k0 as u128 / k as u128) as u64;
    let w1 = total - w0;
    let (sub_parts, _) = bisect_fn(&sub, w0, w1, ub, seed);

    // Relabel: side 1 gets labels starting at part_base + k0.
    for (local, &v) in members.iter().enumerate() {
        if sub_parts[local] == 1 {
            parts[v as usize] = part_base + k0 as u32;
        }
    }
    recursive_bisect(
        hg,
        k0,
        ub,
        seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
        part_base,
        parts,
        bisect_fn,
    );
    recursive_bisect(
        hg,
        k1,
        ub,
        seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(2),
        part_base + k0 as u32,
        parts,
        bisect_fn,
    );
}

/// Extract the sub-hypergraph induced by `members` (nets restricted to the
/// member set; nets with < 2 remaining pins dropped). Local vertex `i` is
/// `members[i]`.
fn induce(hg: &Hypergraph, members: &[u32]) -> Hypergraph {
    let mut local = vec![u32::MAX; hg.num_vertices()];
    for (i, &v) in members.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    // `members` ascends, so local ids keep the global order and each
    // filtered pin row stays strictly ascending.
    let mut net_offsets = vec![0u32];
    let mut net_pins = Vec::new();
    let mut nweights = Vec::new();
    let mut seen_net = vec![false; hg.num_nets()];
    for &v in members {
        for &net in hg.nets_of(v as usize) {
            if seen_net[net as usize] {
                continue;
            }
            seen_net[net as usize] = true;
            let start = net_pins.len();
            net_pins.extend(hg.pins(net as usize).iter().filter_map(|&p| {
                let l = local[p as usize];
                (l != u32::MAX).then_some(l)
            }));
            if net_pins.len() - start >= 2 {
                net_offsets.push(net_pins.len() as u32);
                nweights.push(hg.nweight(net as usize));
            } else {
                net_pins.truncate(start);
            }
        }
    }
    let vweights: Vec<u64> = members.iter().map(|&v| hg.vweight(v as usize)).collect();
    Hypergraph::from_csr(members.len(), net_offsets, net_pins, vweights, nweights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Most restarts in flight at once during the calling thread's
        /// last `partition` call.
        pub(super) static PEAK_RESTARTS: Cell<usize> = const { Cell::new(0) };
    }

    fn grid(n: usize) -> Hypergraph {
        let mut nets = Vec::new();
        for i in 0..n {
            nets.push((0..n).map(|j| (i * n + j) as u32).collect());
        }
        for j in 0..n {
            nets.push((0..n).map(|i| (i * n + j) as u32).collect());
        }
        Hypergraph::unit(n * n, nets)
    }

    #[test]
    fn one_part_is_trivial() {
        let hg = grid(4);
        let p = partition(&hg, &PartitionConfig::for_parts(1));
        assert!(p.parts.iter().all(|&x| x == 0));
        assert_eq!(p.quality.connectivity_minus_one, 0);
    }

    #[test]
    fn two_parts_balanced_grid() {
        let hg = grid(8);
        let cfg = PartitionConfig::for_parts(2).with_nruns(4).with_threads(1);
        let p = partition(&hg, &cfg);
        assert_eq!(p.quality.max_part_weight + p.quality.min_part_weight, 64);
        assert!(p.quality.max_part_weight <= 33, "balance violated");
        // A good split cuts about one family of nets (8); allow slack.
        assert!(
            p.quality.connectivity_minus_one <= 16,
            "cut = {}",
            p.quality.connectivity_minus_one
        );
    }

    #[test]
    fn four_parts_cover_all_labels() {
        let hg = grid(8);
        let cfg = PartitionConfig::for_parts(4).with_nruns(4).with_threads(1);
        let p = partition(&hg, &cfg);
        let mut counts = [0usize; 4];
        for &x in &p.parts {
            counts[x as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c >= 12, "part {i} too small: {c} (want ~16)");
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let hg = grid(6);
        let base = PartitionConfig::for_parts(2).with_nruns(6).with_seed(9);
        let seq = partition(&hg, &base.clone().with_threads(1));
        let par = partition(&hg, &base.with_threads(4));
        assert_eq!(seq.parts, par.parts);
    }

    /// Restarts tie on cost here, so only the pool's reduction decides
    /// which one wins: it must be the lowest index whatever the pool size,
    /// and the pool must never run more than `threads` restarts at once.
    #[test]
    fn restart_pool_picks_lowest_index_on_ties() {
        let hg = grid(8);
        let seed = 3;
        let base = PartitionConfig::for_parts(2).with_seed(seed);
        // Restart `i` alone is `partition` with one run seeded `seed + i`.
        let one_run = base.clone().with_nruns(1).with_threads(1);
        let single: Vec<Partitioning> = (0..20u64)
            .map(|i| partition(&hg, &one_run.clone().with_seed(seed + i)))
            .collect();
        let costs: Vec<u64> = single
            .iter()
            .map(|p| p.quality.connectivity_minus_one)
            .collect();
        let min = *costs.iter().min().unwrap();
        let tied: Vec<&Vec<u32>> = (0..20)
            .filter(|&i| costs[i] == min)
            .map(|i| &single[i].parts)
            .collect();
        assert!(
            tied.iter().any(|&p| p != tied[0]),
            "want distinct tied restarts, costs {costs:?}"
        );
        for nruns in [1usize, 2, 5, 20] {
            let winner = (0..nruns).min_by_key(|&i| (costs[i], i)).unwrap();
            for threads in [1usize, 2, 3, 8, 32] {
                let cfg = base.clone().with_nruns(nruns).with_threads(threads);
                let p = partition(&hg, &cfg);
                assert_eq!(
                    p.parts, single[winner].parts,
                    "nruns {nruns} threads {threads}: want restart {winner}"
                );
                let peak = PEAK_RESTARTS.with(Cell::get);
                assert!(
                    (1..=threads.min(nruns)).contains(&peak),
                    "nruns {nruns} threads {threads}: {peak} restarts ran at once"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let hg = grid(7);
        let cfg = PartitionConfig::for_parts(3).with_nruns(3).with_threads(2);
        let a = partition(&hg, &cfg);
        let b = partition(&hg, &cfg);
        assert_eq!(a.parts, b.parts);
    }

    #[test]
    fn three_parts_roughly_balanced() {
        let hg = grid(9); // 81 vertices
        let cfg = PartitionConfig::for_parts(3).with_nruns(4).with_threads(1);
        let p = partition(&hg, &cfg);
        assert!(p.quality.max_part_weight <= 32, "max = {}", p.quality.max_part_weight);
        assert!(p.quality.min_part_weight >= 21, "min = {}", p.quality.min_part_weight);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_parts_than_vertices_rejected() {
        let hg = Hypergraph::unit(2, vec![vec![0, 1]]);
        partition(&hg, &PartitionConfig::for_parts(3));
    }
}
