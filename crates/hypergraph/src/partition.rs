//! K-way partitioning by recursive bisection, with random restarts.
//!
//! Mirrors the hMETIS configuration used in the paper (§IV-B): near-perfect
//! balance (`UBfactor = 1`), `Nruns = 20` random starts keeping the best
//! connectivity−1 result. Restarts run on a pool of at most
//! `PartitionConfig::threads` worker threads.

use crate::hg::{evaluate, Hypergraph, PartitionQuality};
use crate::multilevel::{bisect, bisect_with, LevelSetup};
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

    let (n, k, ub) = (hg.num_vertices(), config.k, config.ub_factor);
    #[cfg(feature = "naive")]
    if config.naive {
        // The reference: each restart induces the top level itself and
        // evaluates its own cost.
        let parts = best_restart(config, |seed| {
            let mut parts = vec![0u32; n];
            recursive_bisect(
                hg,
                k,
                ub,
                seed,
                0,
                &mut parts,
                crate::multilevel::bisect_naive,
            );
            let cost = evaluate(hg, &parts, k).connectivity_minus_one;
            (parts, cost)
        });
        let quality = evaluate(hg, &parts, k);
        return Partitioning { parts, quality };
    }

    // Every restart first bisects the hypergraph that all vertices induce
    // (`induce` renumbers nets by first touch, so that is not `hg`
    // itself), and matches its finest level by the same setup: both are
    // built once and shared.
    let top = induce(hg, &(0..n as u32).collect::<Vec<u32>>());
    let finest = LevelSetup::new(&top);
    let (w0, w1) = targets(&top, k);
    let parts = best_restart(config, |seed| {
        let (mut parts, cut) = bisect_with(&top, Some(&finest), w0, w1, ub, seed);
        // `top` keeps `hg`'s vertex ids: side 1 gets labels from ⌈k/2⌉.
        let k0 = k.div_ceil(2) as u32;
        parts.iter_mut().for_each(|side| *side *= k0);
        split_sides(hg, k, ub, seed, 0, &mut parts, bisect);
        // With two parts, connectivity−1 is the cut of that bisection.
        let cost = if k == 2 {
            cut
        } else {
            evaluate(hg, &parts, k).connectivity_minus_one
        };
        (parts, cost)
    });
    let quality = evaluate(hg, &parts, k);
    Partitioning { parts, quality }
}

/// Run restarts `0..config.nruns`, restart `i` seeded `config.seed + i`,
/// on a pool of `min(threads, nruns)` workers. Returns the parts of the
/// restart of lowest `(cost, index)`.
fn best_restart(config: &PartitionConfig, run: impl Fn(u64) -> (Vec<u32>, u64) + Sync) -> Vec<u32> {
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
            let (parts, cost) = run(config.seed.wrapping_add(i as u64));
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
    parts
}

/// The bisection below the top level: [`bisect`] or, under the `naive`
/// feature, the reference `bisect_naive`.
type BisectFn = fn(&Hypergraph, u64, u64, f64, u64) -> (Vec<u32>, u64);

/// Target weights of the two sides of `sub` when it is split into `k`
/// parts: `⌈k/2⌉` parts go to side 0.
fn targets(sub: &Hypergraph, k: usize) -> (u64, u64) {
    let total = sub.total_vweight();
    let w0 = (total as u128 * k.div_ceil(2) as u128 / k as u128) as u64;
    (w0, total - w0)
}

/// Recursively bisect the sub-hypergraph induced by the vertices currently
/// labelled `part_base`, producing labels `part_base..part_base + k`.
fn recursive_bisect(
    hg: &Hypergraph,
    k: usize,
    ub: f64,
    seed: u64,
    part_base: u32,
    parts: &mut [u32],
    bisect: BisectFn,
) {
    if k <= 1 {
        return;
    }
    let members: Vec<u32> = (0..parts.len() as u32)
        .filter(|&v| parts[v as usize] == part_base)
        .collect();
    let sub = induce(hg, &members);
    let (w0, w1) = targets(&sub, k);
    let (sides, _) = bisect(&sub, w0, w1, ub, seed);
    // Relabel: side 1 gets labels starting at part_base + k0.
    let k0 = k.div_ceil(2) as u32;
    for (local, &v) in members.iter().enumerate() {
        parts[v as usize] = part_base + sides[local] * k0;
    }
    split_sides(hg, k, ub, seed, part_base, parts, bisect);
}

/// Split each side of a bisection for `k` parts, labelled `part_base` and
/// `part_base + ⌈k/2⌉`, recursively.
fn split_sides(
    hg: &Hypergraph,
    k: usize,
    ub: f64,
    seed: u64,
    part_base: u32,
    parts: &mut [u32],
    bisect: BisectFn,
) {
    let k0 = k.div_ceil(2);
    let child = |i: u64| seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i);
    recursive_bisect(hg, k0, ub, child(1), part_base, parts, bisect);
    recursive_bisect(
        hg,
        k - k0,
        ub,
        child(2),
        part_base + k0 as u32,
        parts,
        bisect,
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

    fn grid_nets(n: usize) -> Vec<Vec<u32>> {
        let mut nets = Vec::new();
        for i in 0..n {
            nets.push((0..n).map(|j| (i * n + j) as u32).collect());
        }
        for j in 0..n {
            nets.push((0..n).map(|i| (i * n + j) as u32).collect());
        }
        nets
    }

    fn grid(n: usize) -> Hypergraph {
        Hypergraph::unit(n * n, grid_nets(n))
    }

    /// An n×n grid with its nets listed last column first and weighted
    /// 1–3. `induce` numbers nets in the order vertex 0, 1, … first
    /// touch them, so the hypergraph that all vertices induce lists them
    /// in another order.
    fn reversed_grid(n: usize) -> Hypergraph {
        let mut nets = grid_nets(n);
        nets.reverse();
        let nweights = (0..nets.len() as u64).map(|e| e % 3 + 1).collect();
        Hypergraph::new(n * n, nets, vec![1; n * n], nweights)
    }

    /// One restart bisects the hypergraph that all vertices induce, not
    /// `hg` itself, whose net order would change the greedy start's
    /// frontier; with two parts its cost is that bisection's cut.
    #[test]
    fn one_restart_bisects_the_induced_top_level() {
        let hg = reversed_grid(14);
        let all: Vec<u32> = (0..hg.num_vertices() as u32).collect();
        let top = induce(&hg, &all);
        assert!((0..hg.num_nets()).any(|e| top.pins(e) != hg.pins(e)));
        let (w0, w1) = targets(&top, 2);
        let mut direct_differs = false;
        for seed in 0..8 {
            let cfg = PartitionConfig::for_parts(2)
                .with_nruns(1)
                .with_threads(1)
                .with_seed(seed);
            let p = partition(&hg, &cfg);
            let (parts, cut) = bisect(&top, w0, w1, cfg.ub_factor, seed);
            assert_eq!(p.parts, parts, "seed {seed}");
            assert_eq!(p.quality.connectivity_minus_one, cut, "seed {seed}");
            direct_differs |= bisect(&hg, w0, w1, cfg.ub_factor, seed).0 != parts;
        }
        assert!(direct_differs, "bisecting `hg` itself gives the same parts");
    }

    /// With three parts the top level is shared by the restarts and the
    /// side of two parts is induced and bisected again by each: the parts
    /// do not depend on how many workers run the restarts.
    #[test]
    fn three_parts_are_the_same_on_any_thread_count() {
        let hg = reversed_grid(14);
        let base = PartitionConfig::for_parts(3).with_nruns(5).with_seed(11);
        let one = partition(&hg, &base.clone().with_threads(1));
        for threads in [2, 3] {
            let p = partition(&hg, &base.clone().with_threads(threads));
            assert_eq!(p.parts, one.parts, "{threads} threads");
        }
        let mut counts = [0u64; 3];
        for &x in &one.parts {
            counts[x as usize] += 1;
        }
        assert!(counts.iter().all(|&c| (60..=71).contains(&c)), "{counts:?}");
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
        assert!(
            p.quality.max_part_weight <= 32,
            "max = {}",
            p.quality.max_part_weight
        );
        assert!(
            p.quality.min_part_weight >= 21,
            "min = {}",
            p.quality.min_part_weight
        );
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_parts_than_vertices_rejected() {
        let hg = Hypergraph::unit(2, vec![vec![0, 1]]);
        partition(&hg, &PartitionConfig::for_parts(3));
    }
}
