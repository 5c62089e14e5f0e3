//! # memsched-schedulers
//!
//! All five scheduling strategies evaluated in the paper, implemented
//! against the pull-mode [`Scheduler`]
//! interface of `memsched-platform`:
//!
//! * [`EagerScheduler`] — the shared-queue baseline (§V-A);
//! * [`DmdaScheduler`] — StarPU's DMDA / DMDAR (Algorithms 1–2, §IV-A);
//! * [`HmetisRScheduler`] — hypergraph partitioning + Ready + stealing
//!   (Algorithm 3, §IV-B), using `memsched-hypergraph` in place of hMETIS;
//! * [`HfpScheduler`] — (m)HFP hierarchical fair packing (Algorithm 4,
//!   §IV-C);
//! * [`DartsScheduler`] — the paper's contribution: Data-Aware Reactive
//!   Task Scheduling with the LUF eviction policy and its 3inputs / OPTI /
//!   threshold variants (Algorithms 5–6, §IV-D);
//! * [`RouterScheduler`] — the residency-aware request router for
//!   shared-prefix serving workloads (Preble-style `recomp + α·load`
//!   scoring over the engine's residency cache).

#![warn(missing_docs)]

mod darts;
mod dmda;
mod eager;
mod hfp;
mod hmetis_r;
mod ready;
mod router;
mod stealing;

pub use darts::{DartsConfig, DartsEviction, DartsScheduler};
pub use dmda::DmdaScheduler;
pub use eager::EagerScheduler;
pub use hfp::{pack as hfp_pack, pack_with as hfp_pack_with, HfpScheduler, PackConfig};
pub use hmetis_r::{HmetisRScheduler, PartitionerOptions};
#[cfg(feature = "naive")]
pub use ready::ready_pick_scan;
pub use ready::{ready_pick, DEFAULT_READY_WINDOW};
pub use router::{RouterScheduler, DEFAULT_ALPHA_MILLI};
pub use stealing::StealingQueues;

use memsched_platform::Scheduler;

/// Every named scheduler configuration used in the paper's figures, for
/// easy construction by the harness, the tests and perfbench.
#[derive(Clone, Debug, PartialEq)]
pub enum NamedScheduler {
    /// Shared-queue baseline.
    Eager,
    /// DMDA without Ready.
    Dmda,
    /// DMDAR (the paper's StarPU reference point).
    Dmdar,
    /// hMETIS+R with the paper's partitioner settings.
    HmetisR,
    /// mHFP.
    Mhfp,
    /// mHFP with the paper's original quadratic packing in `prepare` —
    /// identical queues and runtime decisions, paper-scale prepare wall
    /// time (`--paper-timing` in the figure harness).
    #[cfg(feature = "naive")]
    MhfpPaperTiming,
    /// DARTS with LRU eviction.
    Darts,
    /// DARTS with LUF eviction.
    DartsLuf,
    /// DARTS+LUF with the 3inputs fallback.
    DartsLuf3,
    /// DARTS+LUF with OPTI.
    DartsLufOpti,
    /// DARTS+LUF with OPTI and 3inputs.
    DartsLufOpti3,
    /// DARTS+LUF with a candidate threshold.
    DartsLufThreshold(usize),
    /// Residency-aware request router (`recomp_bytes + α·load`).
    Router,
}

impl NamedScheduler {
    /// Instantiate the scheduler.
    ///
    /// The trait object is `Send` so a built scheduler can be handed to a
    /// harness worker thread; each engine run still drives its scheduler
    /// from a single thread (the engine is sequential by design).
    pub fn build(&self) -> Box<dyn Scheduler + Send> {
        match *self {
            NamedScheduler::Eager => Box::new(EagerScheduler::new()),
            NamedScheduler::Dmda => Box::new(DmdaScheduler::dmda()),
            NamedScheduler::Dmdar => Box::new(DmdaScheduler::dmdar()),
            NamedScheduler::HmetisR => Box::new(HmetisRScheduler::new()),
            NamedScheduler::Mhfp => Box::new(HfpScheduler::new()),
            #[cfg(feature = "naive")]
            NamedScheduler::MhfpPaperTiming => Box::new(HfpScheduler::new().with_naive_pack()),
            NamedScheduler::Darts => Box::new(DartsScheduler::new(DartsConfig::lru())),
            NamedScheduler::DartsLuf => Box::new(DartsScheduler::new(DartsConfig::luf())),
            NamedScheduler::DartsLuf3 => {
                Box::new(DartsScheduler::new(DartsConfig::luf().with_three_inputs()))
            }
            NamedScheduler::DartsLufOpti => {
                Box::new(DartsScheduler::new(DartsConfig::luf().with_opti()))
            }
            NamedScheduler::DartsLufOpti3 => Box::new(DartsScheduler::new(
                DartsConfig::luf().with_opti().with_three_inputs(),
            )),
            NamedScheduler::DartsLufThreshold(cap) => {
                Box::new(DartsScheduler::new(DartsConfig::luf().with_threshold(cap)))
            }
            NamedScheduler::Router => Box::new(RouterScheduler::new()),
        }
    }

    /// The display name (matches the paper's legends).
    pub fn label(&self) -> String {
        self.build().name()
    }
}

/// The six scheduler families, one representative each: EAGER, DMDAR,
/// hMETIS+R, mHFP, DARTS+LUF and the Router. The serving harnesses, the
/// `serve` and `chaos` binaries (`--sched all`) and the tests sweep them.
pub const FAMILIES: [NamedScheduler; 6] = [
    NamedScheduler::Eager,
    NamedScheduler::Dmdar,
    NamedScheduler::HmetisR,
    NamedScheduler::Mhfp,
    NamedScheduler::DartsLuf,
    NamedScheduler::Router,
];

// Compile-time audit: every concrete scheduler must stay `Send` so the
// parallel sweep harness can move built schedulers onto worker threads.
// (None needs `Sync` — a scheduler is only ever driven by one engine.)
#[allow(dead_code)]
fn _assert_schedulers_send() {
    fn is_send<T: Send>() {}
    is_send::<EagerScheduler>();
    is_send::<DmdaScheduler>();
    is_send::<HmetisRScheduler>();
    is_send::<HfpScheduler>();
    is_send::<DartsScheduler>();
    is_send::<RouterScheduler>();
    is_send::<Box<dyn Scheduler + Send>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_platform::{run, PlatformSpec};
    use memsched_workloads::gemm_2d;

    #[test]
    fn every_named_scheduler_completes_a_small_run() {
        let ts = gemm_2d(4);
        let spec = PlatformSpec::v100(2);
        let all = [
            NamedScheduler::Eager,
            NamedScheduler::Dmda,
            NamedScheduler::Dmdar,
            NamedScheduler::HmetisR,
            NamedScheduler::Mhfp,
            NamedScheduler::Darts,
            NamedScheduler::DartsLuf,
            NamedScheduler::DartsLuf3,
            NamedScheduler::DartsLufOpti,
            NamedScheduler::DartsLufOpti3,
            NamedScheduler::DartsLufThreshold(4),
            NamedScheduler::Router,
        ];
        for named in all {
            let mut sched = named.build();
            let report =
                run(&ts, &spec, sched.as_mut()).unwrap_or_else(|e| panic!("{named:?} failed: {e}"));
            let total: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
            assert_eq!(total, 16, "{named:?} lost tasks");
        }
    }
}
