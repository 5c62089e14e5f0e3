//! # memsched-hypergraph
//!
//! A from-scratch multilevel K-way hypergraph partitioner standing in for
//! hMETIS (closed-source) in the paper's hMETIS+R strategy (§IV-B).
//!
//! Tasks are vertices, data items are hyperedges spanning their consumer
//! tasks; partitioning into `K` balanced parts with minimal connectivity−1
//! yields a task-to-GPU mapping with few replicated data loads. The
//! pipeline is the standard multilevel recipe: heavy-connectivity
//! coarsening → greedy initial bisection → Fiduccia–Mattheyses refinement
//! → recursive bisection for `K > 2`, with `Nruns` random restarts
//! (parallelized) keeping the best result — matching the hMETIS settings
//! used in the paper (`UBfactor = 1`, `Nruns = 20`).
//!
//! ```
//! use memsched_hypergraph::{Hypergraph, PartitionConfig, partition};
//!
//! // Four tasks in a 2×2 grid sharing row/column data.
//! let hg = Hypergraph::unit(4, vec![vec![0, 1], vec![2, 3], vec![0, 2], vec![1, 3]]);
//! let p = partition(&hg, &PartitionConfig::for_parts(2).with_nruns(2));
//! assert_eq!(p.quality.max_part_weight, 2); // perfectly balanced
//! ```

#![warn(missing_docs)]

mod hg;
mod multilevel;
mod partition;

pub use hg::{evaluate, Hypergraph, PartitionQuality};
pub use multilevel::bisect;
#[cfg(feature = "naive")]
pub use multilevel::bisect_naive;
pub use partition::{partition, PartitionConfig, Partitioning};
