//! Bus topology is opt-in: `bus_groups: None` and an explicit one-bus
//! grouping (`vec![0; k]`) must be byte-identical for every scheduler
//! family, so the per-bus engine state cannot perturb the single-bus
//! platform the paper models.

mod common;

use common::{arb_taskset, run_validated, small_spec, without_walls};
use memsched::prelude::*;
use memsched::schedulers::FAMILIES;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `bus_groups: None` and the explicit one-bus grouping must be
    /// byte-identical — same trace, same report — for every family, and
    /// both runs valid: the per-bus engine state collapses to the
    /// single-bus behavior when every GPU shares bus 0.
    #[test]
    fn one_bus_grouping_is_byte_identical_to_ungrouped(
        ts in arb_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
    ) {
        let flat = small_spec(gpus, mem);
        let grouped = small_spec(gpus, mem).with_bus_groups(vec![0; gpus]);
        let config = RunConfig {
            trace: TraceMode::Full,
            ..RunConfig::default()
        };
        for named in &FAMILIES {
            let label = named.label();
            let (flat_report, flat_trace) =
                run_validated(&ts, &flat, named.build().as_mut(), &config);
            let (grp_report, grp_trace) =
                run_validated(&ts, &grouped, named.build().as_mut(), &config);
            prop_assert_eq!(&flat_trace, &grp_trace, "{}: traces diverge", label);
            prop_assert_eq!(
                without_walls(flat_report),
                without_walls(grp_report),
                "{}: reports diverge",
                label
            );
        }
    }
}
