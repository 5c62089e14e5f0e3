//! Chaos/soak harness: randomized seeded fault plans × overload traffic
//! × every online scheduler family × every shed policy × 1/2/8 pool
//! workers. Each composition must hold:
//!
//! 1. **The validator** — every completed cell passes
//!    `memsched_platform::validate` (exactly-once outcomes, no shed task
//!    ever executes, the deferred queue within `max_backlog` under
//!    `PriorityShed`, and every other rule it checks); the only failure
//!    accepted is `SchedulerStuck` under `DeferOnly`;
//! 2. **Same-seed determinism** — the identical composition replays a
//!    byte-identical event stream, on 1, 2 and 8 pool workers alike;
//! 3. **`DeferOnly` is a conservative extension** — deadline and class
//!    metadata on the task set cannot perturb a `DeferOnly` stream by
//!    a single byte (the golden-trace-compatibility guarantee).
//!
//! The default run is the quick CI tier (a few seeds). Set
//! `MEMSCHED_SOAK=N` to soak N seeds; `crates/experiments/src/bin/chaos.rs`
//! wraps the same matrix as a standalone driver with CSV output.

use memsched::experiments::chaos::{check_cell, compose, config_for, digest, POLICIES};
use memsched::experiments::pool;
use memsched::prelude::*;
use memsched::schedulers::FAMILIES;

fn soak_seeds() -> Vec<u64> {
    let n = std::env::var("MEMSCHED_SOAK")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(4); // quick CI tier
    (1..=n).collect()
}

/// The full chaos matrix: the validator per cell (invariant 1),
/// determinism (invariant 2) per composition, across 1/2/8 pool workers.
#[test]
fn chaos_matrix_upholds_serving_invariants() {
    for seed in soak_seeds() {
        let chaos = compose(seed);
        let cells: Vec<(NamedScheduler, ShedPolicy)> = FAMILIES
            .iter()
            .flat_map(|f| POLICIES.iter().map(move |&p| (f.clone(), p)))
            .collect();
        // Invariant 2: the digest of every cell is identical on 1, 2 and
        // 8 workers — the pool can only change wall-clock, not decisions.
        let run_all = |jobs: usize| -> Vec<String> {
            pool::run_indexed(&cells, jobs, |_, (named, policy)| {
                digest(&chaos, named, *policy)
            })
        };
        let one = run_all(1);
        assert_eq!(one, run_all(2), "seed {seed}: 1 vs 2 workers diverge");
        assert_eq!(one, run_all(8), "seed {seed}: 1 vs 8 workers diverge");
        // Re-digest serially: same-seed reruns replay the same stream.
        for (i, (named, policy)) in cells.iter().enumerate() {
            assert_eq!(
                one[i],
                digest(&chaos, named, *policy),
                "seed {seed}: {named:?}/{policy:?} not reproducible"
            );
        }
        // Invariant 1 on the actual traces.
        for (named, policy) in &cells {
            if let Err(e) = check_cell(&chaos, named, *policy) {
                panic!("seed {seed}: {named:?}/{policy:?}: {e}");
            }
        }
    }
}

/// Invariant 3: deadline and class metadata is invisible to `DeferOnly`.
/// The stamped and the plain task set replay byte-identical streams for
/// every family and every composition — the standing guarantee that the
/// checked-in golden traces never need regeneration for overload work.
#[test]
fn defer_only_ignores_overload_metadata() {
    for seed in soak_seeds() {
        let chaos = compose(seed);
        let config = config_for(&chaos, ShedPolicy::DeferOnly);
        for named in FAMILIES {
            let mut a = named.build();
            let ra =
                memsched::platform::run_with_config(&chaos.ts, &chaos.spec, a.as_mut(), &config);
            let mut b = named.build();
            let rb =
                memsched::platform::run_with_config(&chaos.plain, &chaos.spec, b.as_mut(), &config);
            match (ra, rb) {
                (Ok((_, ta)), Ok((_, tb))) => {
                    assert_eq!(
                        ta, tb,
                        "seed {seed}: {named:?}: DeferOnly perturbed by metadata"
                    );
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
                }
                (a, b) => panic!(
                    "seed {seed}: {named:?}: outcome changed with metadata: \
                     {:?} vs {:?}",
                    a.map(|(r, _)| r.makespan),
                    b.map(|(r, _)| r.makespan)
                ),
            }
        }
    }
}
