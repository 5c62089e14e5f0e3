//! Validate a Chrome Trace Event JSON file produced by `--trace-out`,
//! and optionally a metrics JSON produced by `--metrics-out`.
//!
//! Usage: `trace_lint TRACE.json [--metrics METRICS.json]`. The trace
//! checks cover the structural schema (a `traceEvents` array whose
//! entries carry `name`/`ph`/`pid`/`tid`, spans with numeric
//! non-negative `ts`/`dur`), the simulator's guarantee that spans on one
//! track never overlap (each PCI bus of a multi-bus platform gets its
//! own track, checked independently), the placement of transfers on
//! interconnect tracks and compute on GPU tracks, the exporter's span
//! order (per-track spans appear in non-decreasing time order),
//! and the admission-track invariants of online
//! runs (time-ordered arrivals, no admit/defer before the arrival). The
//! `--metrics` check validates histogram quantile ordering (p50 ≤ p99)
//! and the latency-sample/completion-count agreement. Exit status: 0
//! when valid (prints a summary line), 1 on a violation, 2 on usage
//! errors — the same convention as the figure binaries.
use memsched_experiments::obs;

fn read_json(path: &str) -> serde::Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            std::process::exit(2);
        }
    };
    match serde_json::parse_value(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--metrics="))
                .map(str::to_string)
        });
    let positional: Vec<&String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if *a == "--metrics" {
                    skip_next = true;
                    return false;
                }
                !a.starts_with('-')
            })
            .collect()
    };
    let path = match positional.as_slice() {
        [p] => p.as_str(),
        _ => {
            eprintln!("usage: trace_lint TRACE.json [--metrics METRICS.json]");
            std::process::exit(2);
        }
    };
    let doc = read_json(path);
    match obs::lint_chrome(&doc) {
        Ok(l) => println!(
            "{path}: OK — {} events ({} spans, {} instants, {} counters, {} metadata, \
             {} admission) on {} tracks ({} bus)",
            l.events, l.spans, l.instants, l.counters, l.metadata, l.admission, l.tracks,
            l.bus_tracks
        ),
        Err(e) => {
            eprintln!("{path}: invalid Chrome trace: {e}");
            std::process::exit(1);
        }
    }
    if let Some(mpath) = metrics {
        let mdoc = read_json(&mpath);
        match obs::lint_metrics(&mdoc) {
            Ok(l) => println!(
                "{mpath}: OK — {} histograms checked ({} run)",
                l.histograms,
                if l.online { "online" } else { "batch" }
            ),
            Err(e) => {
                eprintln!("{mpath}: invalid metrics: {e}");
                std::process::exit(1);
            }
        }
    }
}
