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
//! and, against the report's per-GPU task counts, that an online run
//! completes what it admitted with one latency sample per completion.
//! Exit status: 0 when valid (prints a summary line), 1 on a violation,
//! 2 on usage errors — the same convention as the figure binaries. A `--metrics`
//! without a path, an unknown flag or a second trace path is a usage
//! error, so no requested check is ever skipped.
use memsched_experiments::obs;

const USAGE: &str = "usage: trace_lint TRACE.json [--metrics METRICS.json]";

#[derive(Debug, PartialEq)]
struct Args {
    trace: String,
    metrics: Option<String>,
}

fn parse_from(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut trace = None;
    let mut metrics = None;
    while let Some(a) = args.next() {
        let value = match a.strip_prefix("--metrics=") {
            Some(v) => Some(v.to_string()),
            None if a == "--metrics" => Some(args.next().unwrap_or_default()),
            None => None,
        };
        if let Some(v) = value {
            if v.is_empty() || v.starts_with("--") {
                return Err("--metrics: missing path".into());
            }
            if metrics.replace(v).is_some() {
                return Err("--metrics given twice".into());
            }
        } else if a.starts_with('-') {
            return Err(format!("unknown flag {a:?}"));
        } else if trace.is_some() {
            return Err(format!("unexpected second trace path {a:?}"));
        } else {
            trace = Some(a);
        }
    }
    let trace = trace.ok_or("missing TRACE.json")?;
    Ok(Args { trace, metrics })
}

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
    let Args {
        trace: path,
        metrics,
    } = match parse_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let doc = read_json(&path);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_both_metrics_forms_in_any_position() {
        let want = Args {
            trace: "t.json".into(),
            metrics: Some("m.json".into()),
        };
        assert_eq!(parse(&["t.json", "--metrics", "m.json"]), Ok(want));
        let a = parse(&["--metrics=m.json", "t.json"]).unwrap();
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert_eq!(parse(&["t.json"]).unwrap().metrics, None);
    }

    #[test]
    fn rejects_a_bare_metrics_flag() {
        for args in [
            &["t.json", "--metrics"][..],
            &["t.json", "--metrics="],
            &["--metrics", "--other", "t.json"],
        ] {
            let err = parse(args).unwrap_err();
            assert_eq!(err, "--metrics: missing path", "{args:?}");
        }
    }

    #[test]
    fn rejects_an_unknown_flag() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert!(err(&["t.json", "--metric=m.json"]).contains("unknown flag"));
        assert!(err(&["t.json", "--bogus"]).contains("unknown flag"));
    }

    #[test]
    fn rejects_a_second_positional() {
        let err = parse(&["t.json", "u.json"]).unwrap_err();
        assert!(err.contains("second trace path"), "{err}");
        assert!(parse(&[]).unwrap_err().contains("missing TRACE.json"));
        let twice = parse(&["t.json", "--metrics", "a", "--metrics=b"]);
        assert_eq!(twice, Err("--metrics given twice".into()));
    }
}
