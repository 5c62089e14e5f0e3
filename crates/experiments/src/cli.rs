//! Shared argument parsing for the figure binaries, plus the `--sched`
//! list parser of the `serve` and `chaos` binaries ([`parse_scheds`]).
//!
//! Every `fig*` binary (and `all_figures`) accepts the same flags:
//! `--quick` (trim the sweep to a few points), `--paper-timing` (run the
//! paper's original quadratic mHFP packing so prepare wall time matches
//! the published scheduling-time behaviour; simulated decisions are
//! unchanged), `--json PATH` (also write the rows as JSON), `--jobs N`
//! (worker count for the sweep pool; falls back to `MEMSCHED_JOBS`, then
//! to the machine's parallelism), `--faults SPEC` (inject a
//! deterministic fault plan into every run cell; see
//! [`FaultPlan::parse`] for the clause grammar), and the observability
//! outputs `--trace-out PATH`, `--trace-format chrome|paje` and
//! `--metrics-out PATH` (re-run the figure's representative cell with a
//! probe attached and export the timeline/metrics; see [`crate::obs`]).
//! Output paths are checked at parse time — a bad path exits with
//! status 2 before any cell runs, like a malformed `--faults` spec — and
//! so are unknown flags and flags missing their value ([`check_flags`],
//! shared with `serve`, `chaos` and `prefix_route`).

use crate::figures;
use crate::harness::FigureSpec;
use crate::obs::{self, ObsOut};
use crate::pool;
use memsched_platform::FaultPlan;
use memsched_schedulers::{NamedScheduler, FAMILIES};

/// Parsed command-line options common to all figure binaries.
#[derive(Clone, Debug)]
pub struct FigArgs {
    /// `--quick`: keep only a few sweep points.
    pub quick: bool,
    /// `--paper-timing`: mHFP entries use the original quadratic packing.
    pub paper_timing: bool,
    /// `--json PATH`: also write rows as JSON to this path.
    pub json: Option<String>,
    /// Resolved worker count (`--jobs` > `MEMSCHED_JOBS` > parallelism).
    pub jobs: usize,
    /// `--faults SPEC`: fault plan injected into every run cell.
    pub faults: Option<FaultPlan>,
    /// `--trace-out` / `--trace-format` / `--metrics-out`.
    pub obs: ObsOut,
}

impl FigArgs {
    /// Apply the spec-shaping flags to `fig`: trim the sweep under
    /// `--quick`, swap mHFP to the paper-timing variant under
    /// `--paper-timing`, install the `--faults` plan.
    pub fn apply(&self, fig: FigureSpec) -> FigureSpec {
        let fig = if self.quick { figures::quick(fig) } else { fig };
        let mut fig = if self.paper_timing {
            figures::paper_timing(fig)
        } else {
            fig
        };
        if let Some(plan) = &self.faults {
            fig.faults = plan.clone();
        }
        fig
    }

    /// Write the requested trace/metrics files for `fig` (no-op unless
    /// `--trace-out` or `--metrics-out` was given). Call after the sweep
    /// so a failing sweep never leaves half-written observability files.
    pub fn export_obs(&self, fig: &FigureSpec) -> Result<(), String> {
        obs::export_figure(fig, &self.obs)
    }
}

/// Parse a `--sched` list of the serving binaries: comma-separated
/// `eager`, `dmda`, `dmdar`, `hmetis`, `mhfp`, `darts` (DARTS+LUF),
/// `router`, or `all` for the six [`FAMILIES`].
pub fn parse_scheds(spec: &str) -> Result<Vec<NamedScheduler>, String> {
    let mut out = Vec::new();
    for name in spec.split(',').filter(|s| !s.is_empty()) {
        match name {
            "eager" => out.push(NamedScheduler::Eager),
            "dmda" => out.push(NamedScheduler::Dmda),
            "dmdar" => out.push(NamedScheduler::Dmdar),
            "hmetis" => out.push(NamedScheduler::HmetisR),
            "mhfp" => out.push(NamedScheduler::Mhfp),
            "darts" => out.push(NamedScheduler::DartsLuf),
            "router" => out.push(NamedScheduler::Router),
            "all" => out.extend(FAMILIES),
            other => {
                return Err(format!(
                    "--sched {other:?}: expected eager|dmda|dmdar|hmetis|mhfp|darts|router|all"
                ))
            }
        }
    }
    if out.is_empty() {
        return Err("--sched: empty scheduler list".to_string());
    }
    Ok(out)
}

/// Reject what a parser would otherwise skip or misread: an argument
/// that is neither one of `switches` nor one of `value_flags` (an
/// unknown flag if it starts with `--`), a value flag without a value,
/// and a value that starts with `--` (so `--trace-out --quick` never
/// writes a file named `--quick`). The `--flag=VALUE` form passes any
/// value.
pub fn check_flags(args: &[String], switches: &[&str], value_flags: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if switches.contains(&a) {
            i += 1;
        } else if let Some((flag, _)) = a.split_once('=') {
            if !value_flags.contains(&flag) {
                return Err(format!("unknown flag {flag:?}"));
            }
            i += 1;
        } else if value_flags.contains(&a) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => return Err(format!("{a}: missing value")),
            }
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a:?}"));
        } else {
            return Err(format!("unknown argument {a:?}"));
        }
    }
    Ok(())
}

/// The value of `--flag VALUE` or `--flag=VALUE` in `args`.
pub fn value_of(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| {
            let prefix = format!("{flag}=");
            args.iter()
                .find_map(|a| a.strip_prefix(&prefix))
                .map(str::to_string)
        })
}

/// Parse the process's arguments; exits with a readable message (status 2)
/// on an unknown flag, a missing value or a malformed one.
pub fn parse() -> FigArgs {
    match parse_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Parse from an explicit argument list (testable entry point).
pub fn parse_from(args: impl Iterator<Item = String>) -> Result<FigArgs, String> {
    let args: Vec<String> = args.collect();
    let value_flags = [&["--json", "--jobs", "--faults"][..], &ObsOut::FLAGS].concat();
    check_flags(&args, &["--quick", "--paper-timing"], &value_flags)?;
    let value_of = |flag: &str| value_of(&args, flag);
    let json = value_of("--json");
    if let Some(p) = &json {
        obs::validate_out_path("--json", p)?;
    }
    let jobs_arg = match value_of("--jobs") {
        Some(j) => Some(
            j.parse::<usize>()
                .map_err(|_| format!("--jobs {j:?}: not a number"))?,
        ),
        None => None,
    };
    let faults = match value_of("--faults") {
        Some(spec) => Some(FaultPlan::parse(&spec).map_err(|e| format!("--faults {spec:?}: {e}"))?),
        None => None,
    };
    Ok(FigArgs {
        quick: args.iter().any(|a| a == "--quick"),
        paper_timing: args.iter().any(|a| a == "--paper-timing"),
        json,
        jobs: pool::resolve_jobs(jobs_arg),
        faults,
        obs: ObsOut::parse(value_of)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TraceFormat;

    fn argv(items: &[&str]) -> impl Iterator<Item = String> {
        items
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_all_flags() {
        let a = parse_from(argv(&[
            "--quick",
            "--paper-timing",
            "--json",
            "out.json",
            "--jobs",
            "3",
        ]))
        .unwrap();
        assert!(a.quick);
        assert!(a.paper_timing);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.jobs, 3);
        assert!(a.faults.is_none());
    }

    #[test]
    fn apply_shapes_the_spec() {
        let args = parse_from(argv(&["--quick", "--paper-timing"])).unwrap();
        let fig = args.apply(crate::figures::fig03());
        assert!(fig.points.len() <= 4, "--quick must trim the sweep");
        for p in &fig.points {
            assert!(
                !p.schedulers.contains(&NamedScheduler::Mhfp),
                "--paper-timing must swap every mHFP entry"
            );
        }
        let plain = parse_from(argv(&[])).unwrap();
        let fig = plain.apply(crate::figures::fig03());
        assert_eq!(fig.points.len(), crate::figures::fig03().points.len());
    }

    #[test]
    fn parses_equals_form_and_defaults() {
        let a = parse_from(argv(&["--jobs=2"])).unwrap();
        assert!(!a.quick);
        assert!(!a.paper_timing);
        assert_eq!(a.json, None);
        assert_eq!(a.jobs, 2);

        let d = parse_from(argv(&[])).unwrap();
        assert!(d.jobs >= 1);
        assert!(d.faults.is_none());

        // A malformed or missing worker count is an error (→ exit 2),
        // never a silent fallback to the default.
        for bad in [&["--jobs", "abc"][..], &["--jobs=abc"]] {
            let e = parse_from(argv(bad)).unwrap_err();
            assert!(
                e.contains("--jobs") && e.contains("not a number"),
                "{bad:?}: {e}"
            );
        }
        for missing in [&["--jobs"][..], &["--jobs", "--quick"]] {
            let e = parse_from(argv(missing)).unwrap_err();
            assert_eq!(e, "--jobs: missing value", "{missing:?}");
        }
        assert_eq!(
            parse_from(argv(&["--jobs", "abc"])).unwrap_err(),
            "--jobs \"abc\": not a number"
        );
    }

    #[test]
    fn parses_and_applies_fault_specs() {
        let a = parse_from(argv(&["--faults", "fail:1@5ms;flaky:ppm=1000"])).unwrap();
        let plan = a.faults.clone().expect("plan parsed");
        assert_eq!(plan.gpu_failures.len(), 1);
        assert!(plan.transfer_faults.is_some());
        let fig = a.apply(crate::figures::fig05());
        assert_eq!(fig.faults, plan);

        let eq = parse_from(argv(&["--faults=slow:0@1sx2.0"])).unwrap();
        assert_eq!(eq.faults.unwrap().stragglers.len(), 1);

        let bad = parse_from(argv(&["--faults", "explode:3"]));
        assert!(bad.is_err(), "malformed spec must be rejected");
    }

    #[test]
    fn sched_lists_parse_router_and_expand_all() {
        assert_eq!(
            parse_scheds("router").unwrap(),
            vec![NamedScheduler::Router]
        );
        assert_eq!(parse_scheds("all").unwrap(), FAMILIES.to_vec());
        assert_eq!(
            parse_scheds("eager,darts").unwrap(),
            vec![NamedScheduler::Eager, NamedScheduler::DartsLuf]
        );
        assert!(parse_scheds("nope").unwrap_err().contains("router|all"));
        assert!(parse_scheds(",").unwrap_err().contains("empty"));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        let err = |args: &[&str]| parse_from(argv(args)).unwrap_err();
        let typo = "unknown flag \"--metric-out\"";
        assert_eq!(err(&["--quick", "--metric-out", "m.json"]), typo);
        assert_eq!(err(&["--quick", "--metric-out=m.json"]), typo);
        assert_eq!(
            err(&["--quick", "--trace-out"]),
            "--trace-out: missing value"
        );
        assert_eq!(
            err(&["--quick", "--trace-out", "--quick"]),
            "--trace-out: missing value"
        );
        assert_eq!(
            err(&["--quick", "rows.json"]),
            "unknown argument \"rows.json\""
        );
        // The `=` form passes any value, a leading `--` included.
        let a = parse_from(argv(&["--json=--rows.json", "--quick"])).unwrap();
        assert_eq!(a.json.as_deref(), Some("--rows.json"));
    }

    #[test]
    fn parses_obs_flags_and_rejects_bad_paths_at_parse_time() {
        let a = parse_from(argv(&[
            "--trace-out",
            "/tmp/t.json",
            "--trace-format=paje",
            "--metrics-out",
            "/tmp/m.json",
        ]))
        .unwrap();
        assert_eq!(a.obs.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(a.obs.trace_format, TraceFormat::Paje);
        assert_eq!(a.obs.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert!(a.obs.is_active());

        let d = parse_from(argv(&[])).unwrap();
        assert!(!d.obs.is_active());
        assert_eq!(d.obs.trace_format, TraceFormat::Chrome);

        // Bad paths and formats surface as parse errors (→ exit 2),
        // exactly like a malformed --faults spec.
        let e = parse_from(argv(&["--trace-out", "/no/such/dir/t.json"]));
        assert!(e.unwrap_err().contains("--trace-out"));
        let e = parse_from(argv(&["--metrics-out=/no/such/dir/m.json"]));
        assert!(e.unwrap_err().contains("--metrics-out"));
        let e = parse_from(argv(&["--json", "/no/such/dir/rows.json"]));
        assert!(e.unwrap_err().contains("--json"));
        let e = parse_from(argv(&["--trace-format", "vite"]));
        assert!(e.unwrap_err().contains("--trace-format"));
    }
}
