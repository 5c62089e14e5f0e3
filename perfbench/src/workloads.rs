//! The four benchmark workloads: their inputs, made from the seed, and
//! the scheduler each one runs.
//!
//! Every workload is a list of [`Cell`]s — one simulation each. A batch
//! workload has one cell; `prefix_serve` has one cell per (request stream
//! × ladder rate). One *rep* runs every cell once with a fresh scheduler.

use memsched_model::{TaskSet, TaskSetBuilder};
use memsched_platform::{AdmissionConfig, PlatformSpec, Scheduler, ShedPolicy};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::constants::{TILE_BYTES, TILE_GEMM_FLOPS};
use memsched_workloads::{
    assign_classes, deadline_stamps, gemm_2d_random, open_loop_arrivals, prefix, ArrivalPattern,
    PrefixConfig, TrafficGen,
};

/// Open-loop Poisson ladder of `prefix_serve`, requests per second:
/// about 0.45, 0.9, 1.35 and 1.8 times the ~9k req/s the Router
/// sustains on the two-GPU serving platform.
pub const RATES: [f64; 4] = [4_000.0, 8_000.0, 12_000.0, 16_000.0];
/// Ladder index whose latency, bytes and makespan are the serving
/// end-to-end numbers. Below the knee: at 0.9× load a stream's median
/// latency swings by 2× between seeds, which no bound could absorb.
pub const REFERENCE_RATE: usize = 0;
/// Ladder index whose goodput is reported (1.8× overload).
pub const OVERLOAD_RATE: usize = 3;
/// Mean per-request completion deadline (jittered ±50 %).
pub const DEADLINE_NS: u64 = 5_000_000;
/// Latency objective of `max_rate_at_slo`: p99 at most this …
pub const SLO_P99_NS: u64 = 5_000_000;
/// … and at most this share of requests shed, expired or late.
pub const SLO_FAILED_SHARE: f64 = 0.01;
/// Admission backlog bound under `PriorityShed`.
pub const MAX_BACKLOG: usize = 16;
/// Tenant classes, drawn with equal weights.
pub const CLASSES: usize = 3;
/// Cache pressure of the serving platform: tree bytes ÷ aggregate GPU
/// memory.
pub const CACHE_PRESSURE: f64 = 2.0;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DARTS+LUF on the 2D product at 4× memory pressure: scheduler-bound.
    Gemm2dDarts,
    /// hMETIS+R on the same inputs: bound by the hypergraph partitioner.
    Gemm2dHmetis,
    /// EAGER on the 10⁵-task 3D product with room for everything:
    /// bound by the engine's event loop, no evictions.
    Gemm3dEager,
    /// The Router serving prefix-tree request streams through admission
    /// control, deadlines and shedding.
    PrefixServe,
}

/// Input sizes. [`Size::FULL`] is the benchmark; tests use smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Grid of the 2D product (`n²` tasks).
    pub gemm2d: usize,
    /// Grid of the 3D product (`n³` tasks).
    pub gemm3d: usize,
    /// Independent request streams of `prefix_serve`.
    pub streams: usize,
    /// Requests per stream.
    pub requests: usize,
}

impl Size {
    /// The benchmark's sizes. `gemm_2d(140)` is 19,600 tasks over a
    /// 4.1 GB working set, 4× the two 500 MB GPUs (Figure 6's largest
    /// cell); `gemm_3d(47)` is the 103,823-task `scale_xl` tier. Serving
    /// quantiles are medians over 16 streams of 10k requests, because a
    /// single stream's p50 moves by ±30 % from one seed to the next.
    pub const FULL: Size = Size {
        gemm2d: 140,
        gemm3d: 47,
        streams: 16,
        requests: 10_000,
    };
}

/// One simulation of a rep.
pub struct Cell {
    /// The tasks, with arrival, deadline and class stamps when serving.
    pub ts: TaskSet,
    /// The simulated machine.
    pub spec: PlatformSpec,
    /// `Some` for an online (serving) run.
    pub admission: Option<AdmissionConfig>,
    /// Ladder index of a serving cell; `None` for batch.
    pub rate: Option<usize>,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Gemm2dDarts,
        Workload::Gemm2dHmetis,
        Workload::Gemm3dEager,
        Workload::PrefixServe,
    ];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gemm2dDarts => "gemm2d_darts",
            Workload::Gemm2dHmetis => "gemm2d_hmetis",
            Workload::Gemm3dEager => "gemm3d_eager",
            Workload::PrefixServe => "prefix_serve",
        }
    }

    /// Look a workload up by [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload serves request streams (admission loop).
    pub fn is_serving(self) -> bool {
        self == Workload::PrefixServe
    }

    /// A fresh scheduler for one cell.
    pub fn scheduler(self) -> Box<dyn Scheduler + Send> {
        match self {
            Workload::Gemm2dDarts => NamedScheduler::DartsLuf,
            Workload::Gemm2dHmetis => NamedScheduler::HmetisR,
            Workload::Gemm3dEager => NamedScheduler::Eager,
            Workload::PrefixServe => NamedScheduler::Router,
        }
        .build()
    }

    /// The inputs of one run: a pure function of `seed` and `size`.
    ///
    /// The seed sets the task submission order of the batch workloads
    /// (the paper's randomized order of Figure 9 for the 2D product; a
    /// shuffle of the output tiles, each keeping its inner `k` loop, for
    /// the 3D product), and every stream of `prefix_serve`: tree node
    /// sizes, leaf draws, arrivals, deadlines and classes. Relabelling
    /// the 2D blocks instead would leave hMETIS+R's partition, and so
    /// every simulated number of `gemm2d_hmetis`, the same for all seeds.
    pub fn cells(self, seed: u64, size: Size) -> Vec<Cell> {
        let batch = |ts: TaskSet, spec: PlatformSpec| {
            vec![Cell {
                ts,
                spec,
                admission: None,
                rate: None,
            }]
        };
        match self {
            Workload::Gemm2dDarts | Workload::Gemm2dHmetis => {
                batch(gemm_2d_random(size.gemm2d, seed), PlatformSpec::v100(2))
            }
            Workload::Gemm3dEager => {
                let ts = gemm_3d_tile_order(size.gemm3d, seed);
                let spec = PlatformSpec::v100(16).with_memory(ts.working_set_bytes());
                batch(ts, spec)
            }
            Workload::PrefixServe => (0..size.streams)
                .flat_map(|s| serving_stream(mix(seed, s as u64), size.requests))
                .collect(),
        }
    }
}

/// Independent sub-seed `salt` of `seed` (one SplitMix64 step, so nearby
/// seeds and salts give unrelated streams).
fn mix(seed: u64, salt: u64) -> u64 {
    TrafficGen::new(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// `gemm_3d(n)` with its `n²` output tiles submitted in a seeded order;
/// the `n` tasks of one tile stay consecutive, as in the natural order.
fn gemm_3d_tile_order(n: usize, seed: u64) -> TaskSet {
    let mut b = TaskSetBuilder::new();
    let a: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    let bt: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    let mut tiles: Vec<usize> = (0..n * n).collect();
    let mut rng = TrafficGen::new(seed);
    for i in (1..tiles.len()).rev() {
        tiles.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    for t in tiles {
        let (i, j) = (t / n, t % n);
        for k in 0..n {
            b.add_task(&[a[i * n + k], bt[k * n + j]], TILE_GEMM_FLOPS);
        }
    }
    b.build()
}

/// One request stream at every ladder rate: the same prefix-tree
/// requests, deadlines and classes, and the same exponential draws
/// scaled to each rate, so the rungs differ only in load.
fn serving_stream(seed: u64, requests: usize) -> Vec<Cell> {
    let tree = prefix::prefix_tree(&PrefixConfig::serving_default(requests, seed));
    let deadlines = deadline_stamps(requests, DEADLINE_NS, 1.0, mix(seed, 1));
    let classes: Vec<u32> = assign_classes(requests, &[1.0; CLASSES], mix(seed, 2))
        .into_iter()
        .map(|c| c as u32)
        .collect();
    // Per-GPU memory holds 1/(2·pressure) of the tree, but at least two
    // of the largest requests so every task fits.
    let max_footprint = tree
        .tasks()
        .map(|t| tree.task_footprint(t))
        .max()
        .unwrap_or(0);
    let per_gpu =
        ((prefix::tree_bytes(&tree) as f64 / (2.0 * CACHE_PRESSURE)) as u64).max(2 * max_footprint);
    let spec = PlatformSpec::v100(2).with_memory(per_gpu);
    let admission = AdmissionConfig {
        max_backlog: Some(MAX_BACKLOG),
        policy: ShedPolicy::PriorityShed,
    };
    RATES
        .iter()
        .enumerate()
        .map(|(r, &rate_per_sec)| {
            let arrivals = open_loop_arrivals(
                &ArrivalPattern::Poisson { rate_per_sec },
                mix(seed, 3),
                requests,
            );
            Cell {
                ts: tree
                    .clone()
                    .with_arrivals(arrivals)
                    .with_deadlines(deadlines.clone())
                    .with_classes(classes.clone()),
                spec: spec.clone(),
                admission: Some(admission.clone()),
                rate: Some(r),
            }
        })
        .collect()
}
