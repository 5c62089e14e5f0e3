//! Every workload's build → run → check path at reduced size, the checks
//! themselves, and the metric catalogue against `BENCHMARK.json`.

use memsched_perfbench::check::{check_report, fingerprint};
use memsched_perfbench::metrics;
use memsched_perfbench::workloads::{Size, Workload, RATES};
use memsched_perfbench::{run_rep, Mode};
use std::time::Instant;

const SMALL: Size = Size {
    gemm2d: 12,
    gemm3d: 6,
    streams: 2,
    requests: 500,
};

#[test]
fn every_workload_runs_and_passes_its_checks_in_every_mode() {
    for w in Workload::ALL {
        let cells = w.cells(7, SMALL);
        let expected_cells = if w.is_serving() {
            SMALL.streams * RATES.len()
        } else {
            1
        };
        assert_eq!(cells.len(), expected_cells, "{}", w.name());
        let epoch = Instant::now();
        let plain =
            run_rep(w, &cells, Mode::Off, epoch).unwrap_or_else(|f| panic!("{}: {f}", w.name()));
        for mode in Mode::ALL {
            let rep = run_rep(w, &cells, mode, epoch)
                .unwrap_or_else(|f| panic!("{} {mode:?}: {f}", w.name()));
            assert_eq!(rep.reports.len(), cells.len());
            for (a, b) in plain.reports.iter().zip(&rep.reports) {
                assert_eq!(fingerprint(a), fingerprint(b), "{} {mode:?}", w.name());
            }
            match mode {
                Mode::Full => {
                    for (r, d) in rep.reports.iter().zip(&rep.digests) {
                        assert!(d.events > 0);
                        assert_eq!(d.loads, r.total_loads, "{}", w.name());
                    }
                }
                Mode::Checksum => assert!(rep.reports.iter().all(|r| r.trace_checksum.is_some())),
                Mode::Timed => assert!(!rep.spans.is_empty()),
                Mode::Observed => assert!(rep.obs_events > 0),
                Mode::Off => {}
            }
        }
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for w in Workload::ALL {
        let run = |seed| {
            let cells = w.cells(seed, SMALL);
            run_rep(w, &cells, Mode::Off, Instant::now())
                .expect("small run")
                .reports
                .iter()
                .map(fingerprint)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3), "{}: same seed, different outcome", w.name());
        assert_ne!(
            run(3),
            run(4),
            "{}: the seed does not reach the inputs",
            w.name()
        );
    }
}

#[test]
fn checks_reject_broken_reports() {
    let w = Workload::PrefixServe;
    let cells = w.cells(1, SMALL);
    let rep = run_rep(w, &cells, Mode::Off, Instant::now()).expect("small run");
    let (cell, good) = (&cells[0], &rep.reports[0]);
    check_report(cell, good).expect("an honest report passes");

    let broken = |edit: &dyn Fn(&mut memsched_platform::RunReport)| {
        let mut r = good.clone();
        edit(&mut r);
        check_report(cell, &r)
            .expect_err("a broken report must fail")
            .check
    };
    assert_eq!(broken(&|r| r.per_gpu[0].busy += 1), "lanes");
    assert_eq!(broken(&|r| r.per_gpu[1].load_bytes += 1), "bytes");
    assert_eq!(broken(&|r| r.per_gpu[0].tasks += 1), "tasks");
    assert_eq!(
        broken(&|r| r.online.as_mut().unwrap().tasks_shed += 1),
        "ledger"
    );

    // The compulsory-bytes bound, on a batch run (every task runs).
    let w = Workload::Gemm3dEager;
    let cells = w.cells(1, SMALL);
    let mut r = run_rep(w, &cells, Mode::Off, Instant::now())
        .expect("small run")
        .reports
        .remove(0);
    r.total_load_bytes = 0;
    r.per_gpu.iter_mut().for_each(|g| g.load_bytes = 0);
    assert_eq!(
        check_report(&cells[0], &r)
            .expect_err("no bytes moved")
            .check,
        "compulsory"
    );
}

/// `BENCHMARK.json` at the repository root lists the same workloads and
/// metrics, with the same units and directions, in the same order.
#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let section = |key: &str| -> Vec<Vec<String>> {
        let entries = doc
            .as_obj()
            .expect("an object")
            .iter()
            .find(|(k, _)| k == key);
        let entries = entries
            .unwrap_or_else(|| panic!("no {key}"))
            .1
            .as_arr()
            .expect("a list");
        entries
            .iter()
            .map(|e| {
                let field = |f: &str| {
                    e.as_obj()
                        .and_then(|o| o.iter().find(|(k, _)| k == f))
                        .and_then(|(_, v)| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                vec![field("name"), field("unit"), field("better")]
            })
            .collect()
    };
    let catalogue = |specs: Vec<metrics::Spec>| -> Vec<Vec<String>> {
        specs
            .into_iter()
            .map(|s| vec![s.name, s.unit.to_string(), s.better.to_string()])
            .collect()
    };
    let workloads: Vec<String> = section("workloads")
        .into_iter()
        .map(|e| e[0].clone())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    assert_eq!(section("end_to_end"), catalogue(metrics::end_to_end()));
    assert_eq!(section("per_layer"), catalogue(metrics::per_layer()));
}
