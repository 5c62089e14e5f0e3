//! Fault recovery in the *online* serving mode: the stream-side mirror of
//! `fault_recovery_invariants` in `property_invariants.rs`. Random
//! arrival streams (with random deadlines and tenant classes) meet a
//! composed fault plan — one fail-stop, one capacity shrink, one
//! straggler, flaky transfers — under a drawn shed policy and backlog
//! bound, for all six scheduler families.
//!
//! Each case is the scenario fuzzer's check (`common::check_scenario`):
//! the same seed replays an identical run, and the run passes
//! `memsched_platform::validate` — an exactly-once outcome ledger, no
//! start of a shed or expired task, restarts only after the fail-stop of
//! the GPU that held the task, occupancy within the shrunk capacity, and
//! `OnlineStats` equal to the trace's fold. Under `DeferOnly` a fault can
//! strand a deferred task forever; the run must then end in
//! `SchedulerStuck`, the same way twice.

mod common;

use common::{check_scenario, Faults, Scenarios};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn online_fault_recovery_invariants(
        s in Scenarios { online: Some(true), faults: Faults::Every },
    ) {
        check_scenario(&s)?;
    }
}
