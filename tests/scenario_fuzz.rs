//! The scenario fuzzer: one seeded strategy (`common::Scenarios`) draws
//! whole scenarios — task set, platform, batch or online admission, fault
//! plan — and each case runs all six scheduler families twice
//! (`common::check_scenario`). The two runs must agree (same trace, same
//! report without its wall-clock fields), and the first must pass
//! `memsched_platform::validate`: the paper's memory, pinning, residency
//! and bus rules, exactly-once execution, the fault and admission
//! ledgers, report equals fold, and the model's load bounds.
//!
//! The only failure accepted is `SchedulerStuck` under `DeferOnly` with a
//! fault planned (a fault can strand a deferred task that policy has no
//! way to drop), and the rerun must stall the same way. Memory and shrink
//! targets are never below the largest task footprint, so no scenario is
//! expected to end in `TaskTooLarge`.
//!
//! This file draws from the whole space. Fixed slices of it run as their
//! own tests, so every run draws each regime: batch runs without and with
//! every fault (`property_invariants.rs`), online runs without faults and
//! with a shrink (`online_invariants.rs`), and online runs with every
//! fault (`online_fault_recovery.rs`).

mod common;

use common::{check_scenario, ANY_SCENARIO};
use proptest::prelude::*;

proptest! {
    // 192 cases × 6 families × 2 runs = 2,304 engine runs.
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_scenario_replays_and_validates(s in ANY_SCENARIO) {
        check_scenario(&s)?;
    }
}
