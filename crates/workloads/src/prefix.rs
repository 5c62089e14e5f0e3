//! Prefix-tree workload generator: the multi-GPU KV/prefix-cache
//! serving scenario (ROADMAP item 2).
//!
//! Data items form a seeded prefix **tree** — the radix tree of shared
//! prompt prefixes in an LLM serving cluster (Preble), which is exactly
//! this paper's shared-input-data structure wearing an inference hat.
//! Each task (request) reads the full root-to-leaf path of one leaf:
//! two requests whose leaves share an ancestor share that ancestor's
//! data items, so placing them on the same GPU saves the re-transfer
//! (the serving analogue of recomputing a shared prefix's KV cache).
//!
//! The tree root is **virtual** (it carries no data): a `depth = 1`
//! tree therefore degenerates to independent single-input tasks — the
//! shape the existing generators already cover — which the differential
//! test in `tests/prefix_workload.rs` pins.
//!
//! Leaves are drawn with Zipf-weighted popularity (leaf 0 is the
//! hottest), so traffic concentrates on the leftmost subtrees and a
//! residency-aware router can exploit the skew. All randomness (node
//! sizes, leaf draws) comes from the seeded [`TrafficGen`] stream;
//! generation is a pure function of the config.

use crate::traffic::TrafficGen;
use memsched_model::{DataId, TaskId, TaskSet, TaskSetBuilder};

/// Arithmetic intensity of a request: flops per byte of its path. Sized
/// so a typical path's compute time is commensurate with re-fetching a
/// few missing nodes over PCI — the regime where routing decisions
/// matter (pure compute-bound or pure transfer-bound would make every
/// policy look alike).
pub const PREFIX_FLOPS_PER_BYTE: f64 = 300.0;

/// Configuration of a prefix-tree workload. All fields are plain values
/// so the config can ride inside the `Copy` [`crate::Workload`] enum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrefixConfig {
    /// Levels of data-carrying nodes on every root-to-leaf path
    /// (`depth = 1`: independent single-item tasks).
    pub depth: usize,
    /// Children per interior node (and number of level-0 subtrees).
    pub fanout: usize,
    /// Number of requests (tasks) to generate.
    pub tasks: usize,
    /// Mean bytes per tree node; actual sizes jitter deterministically
    /// in `[0.75, 1.25) × item_bytes`.
    pub item_bytes: u64,
    /// Zipf exponent of the leaf-popularity distribution (`0.0` =
    /// uniform; larger = hotter head).
    pub zipf_s: f64,
    /// Seed of the generation stream (node sizes + leaf draws).
    pub seed: u64,
}

impl PrefixConfig {
    /// The serving-tier default: depth 6 × fanout 3 (1092 nodes, 729
    /// leaves) of 1 MiB items under a hot Zipf head — a tree a single
    /// V100 cannot hold once pressure exceeds 1×.
    pub fn serving_default(tasks: usize, seed: u64) -> Self {
        PrefixConfig {
            depth: 6,
            fanout: 3,
            tasks,
            item_bytes: 1 << 20,
            zipf_s: 1.1,
            seed,
        }
    }
}

/// Number of data-carrying nodes in a `depth × fanout` tree:
/// `fanout + fanout² + … + fanout^depth` (the root is virtual).
pub fn node_count(depth: usize, fanout: usize) -> usize {
    let mut total = 0usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= fanout;
        total += level;
    }
    total
}

/// Number of leaves: `fanout^depth`.
pub fn leaf_count(depth: usize, fanout: usize) -> usize {
    fanout.pow(depth as u32)
}

/// BFS parent of node `id` in a `fanout`-ary forest (level-0 nodes have
/// no parent — the root is virtual). Node ids are breadth-first: level
/// `l` occupies `[start(l), start(l) + fanout^(l+1))`.
pub fn parent_of(id: usize, depth: usize, fanout: usize) -> Option<usize> {
    let mut start = 0usize;
    let mut width = fanout;
    for _ in 0..depth {
        let end = start + width;
        if id < end {
            if start == 0 {
                return None;
            }
            let prev_width = width / fanout;
            let prev_start = start - prev_width;
            return Some(prev_start + (id - start) / fanout);
        }
        start = end;
        width *= fanout;
    }
    panic!("node {id} outside a depth-{depth} fanout-{fanout} tree");
}

/// The root-to-leaf path of leaf index `i` (`0 ≤ i < fanout^depth`), as
/// ascending BFS node ids — level 0 first. Every task's input set is
/// exactly one of these chains.
pub fn leaf_path(leaf: usize, depth: usize, fanout: usize) -> Vec<usize> {
    assert!(leaf < leaf_count(depth, fanout), "leaf index out of range");
    let mut path = Vec::with_capacity(depth);
    let mut start = 0usize;
    let mut width = fanout;
    // Ancestor of the leaf at level l is leaf / fanout^(depth-1-l).
    for l in 0..depth {
        let idx = leaf / fanout.pow((depth - 1 - l) as u32);
        path.push(start + idx);
        start += width;
        width *= fanout;
    }
    path
}

/// Zipf cumulative weights over `n` ranks with exponent `s`:
/// `w_i ∝ 1/(i+1)^s`. Returned as a running sum for binary-search
/// sampling.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    cdf
}

/// Draw a leaf rank from the Zipf CDF with one uniform variate.
fn draw_leaf(cdf: &[f64], u: f64) -> usize {
    let target = u * cdf[cdf.len() - 1];
    // First rank whose cumulative weight covers the target.
    match cdf.binary_search_by(|w| w.partial_cmp(&target).expect("finite weights")) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

/// Generate the prefix-tree task set: `cfg.tasks` requests, each
/// reading the full path of one Zipf-drawn leaf. Deterministic in
/// `cfg`; arrivals/deadlines/classes are stamped by the caller through
/// the usual [`TaskSet::with_arrivals`] composition so the serving
/// stack applies unchanged.
pub fn prefix_tree(cfg: &PrefixConfig) -> TaskSet {
    assert!(cfg.depth >= 1, "prefix tree needs depth >= 1");
    assert!(cfg.fanout >= 1, "prefix tree needs fanout >= 1");
    assert!(cfg.tasks >= 1, "prefix tree needs at least one task");
    assert!(cfg.item_bytes >= 4, "item_bytes too small to jitter");
    let mut gen = TrafficGen::new(cfg.seed);
    let mut b = TaskSetBuilder::new();

    // Node sizes first, in BFS id order, so the size stream is
    // independent of the task count.
    let nodes = node_count(cfg.depth, cfg.fanout);
    let mut sizes = Vec::with_capacity(nodes);
    let ids: Vec<DataId> = (0..nodes)
        .map(|_| {
            let scale = 0.75 + 0.5 * gen.next_f64();
            let size = ((cfg.item_bytes as f64 * scale) as u64).max(1);
            sizes.push(size);
            b.add_data(size)
        })
        .collect();

    let cdf = zipf_cdf(leaf_count(cfg.depth, cfg.fanout), cfg.zipf_s);
    for _ in 0..cfg.tasks {
        let leaf = draw_leaf(&cdf, gen.next_f64());
        let nodes = leaf_path(leaf, cfg.depth, cfg.fanout);
        let path: Vec<DataId> = nodes.iter().map(|&n| ids[n]).collect();
        let path_bytes: u64 = nodes.iter().map(|&n| sizes[n]).sum();
        b.add_task(&path, path_bytes as f64 * PREFIX_FLOPS_PER_BYTE);
    }
    b.build()
}

/// Total bytes of the data tree (the numerator of the cache-pressure
/// ratio `tree bytes / aggregate GPU memory`).
pub fn tree_bytes(ts: &TaskSet) -> u64 {
    ts.data().map(|d| ts.data_size(d)).sum()
}

/// The leaf index a task reads (its deepest input), for popularity
/// accounting in tests and experiments.
pub fn task_leaf(ts: &TaskSet, t: TaskId, depth: usize, fanout: usize) -> usize {
    let last = *ts.inputs(t).last().expect("prefix task has inputs") as usize;
    let leaves = leaf_count(depth, fanout);
    let leaf_start = node_count(depth, fanout) - leaves;
    last - leaf_start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_leaf_counts_agree() {
        assert_eq!(node_count(1, 5), 5);
        assert_eq!(node_count(3, 2), 2 + 4 + 8);
        assert_eq!(leaf_count(3, 2), 8);
        assert_eq!(node_count(6, 3), 3 + 9 + 27 + 81 + 243 + 729);
    }

    #[test]
    fn paths_are_parent_chains() {
        let (depth, fanout) = (4, 3);
        for leaf in 0..leaf_count(depth, fanout) {
            let path = leaf_path(leaf, depth, fanout);
            assert_eq!(path.len(), depth);
            assert_eq!(parent_of(path[0], depth, fanout), None);
            for w in path.windows(2) {
                assert_eq!(parent_of(w[1], depth, fanout), Some(w[0]));
            }
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let cfg = PrefixConfig {
            depth: 3,
            fanout: 3,
            tasks: 50,
            item_bytes: 1 << 16,
            zipf_s: 1.0,
            seed: 7,
        };
        let a = prefix_tree(&cfg);
        let b = prefix_tree(&cfg);
        assert_eq!(a.num_tasks(), 50);
        assert_eq!(a.num_data(), node_count(3, 3));
        for t in a.tasks() {
            assert_eq!(a.inputs(t), b.inputs(t));
            assert_eq!(a.flops(t), b.flops(t));
        }
        for d in a.data() {
            assert_eq!(a.data_size(d), b.data_size(d));
        }
        let other = prefix_tree(&PrefixConfig { seed: 8, ..cfg });
        let same = a.tasks().all(|t| other.inputs(t) == a.inputs(t));
        assert!(!same, "different seeds must draw different leaves");
    }

    #[test]
    fn zipf_head_is_hotter_than_tail() {
        let cfg = PrefixConfig {
            depth: 2,
            fanout: 4,
            tasks: 4000,
            item_bytes: 1 << 16,
            zipf_s: 1.2,
            seed: 42,
        };
        let ts = prefix_tree(&cfg);
        let leaves = leaf_count(cfg.depth, cfg.fanout);
        let mut counts = vec![0usize; leaves];
        for t in ts.tasks() {
            counts[task_leaf(&ts, t, cfg.depth, cfg.fanout)] += 1;
        }
        assert!(
            counts[0] > counts[leaves - 1],
            "rank-0 leaf ({}) must outdraw the coldest ({})",
            counts[0],
            counts[leaves - 1]
        );
    }

    #[test]
    fn depth_one_tasks_are_single_input() {
        let cfg = PrefixConfig {
            depth: 1,
            fanout: 8,
            tasks: 30,
            item_bytes: 1 << 16,
            zipf_s: 0.8,
            seed: 3,
        };
        let ts = prefix_tree(&cfg);
        for t in ts.tasks() {
            assert_eq!(ts.inputs(t).len(), 1, "virtual root carries no data");
        }
    }
}
