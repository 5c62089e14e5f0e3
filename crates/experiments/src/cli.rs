//! Shared argument parsing for the figure binaries.
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
//! status 2 before any cell runs, like a malformed `--faults` spec.

use crate::figures;
use crate::harness::FigureSpec;
use crate::obs::{self, ObsOut, TraceFormat};
use crate::pool;
use memsched_platform::FaultPlan;

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

/// Parse the process's arguments; exits with a readable message (status 2)
/// if the fault spec is malformed.
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
    let quick = args.iter().any(|a| a == "--quick");
    let paper_timing = args.iter().any(|a| a == "--paper-timing");
    // `--flag VALUE` or `--flag=VALUE`.
    let value_of = |flag: &str| {
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
    };
    let json = value_of("--json");
    if let Some(p) = &json {
        obs::validate_out_path("--json", p)?;
    }
    // A trailing `--jobs` has no value: reject it like a non-number
    // rather than silently falling back to `MEMSCHED_JOBS`.
    let jobs_arg = match value_of("--jobs")
        .or_else(|| args.iter().any(|a| a == "--jobs").then(String::new))
    {
        Some(j) => Some(
            j.parse::<usize>()
                .map_err(|_| format!("--jobs {j:?}: not a number"))?,
        ),
        None => None,
    };
    let faults = match value_of("--faults") {
        Some(spec) => {
            Some(FaultPlan::parse(&spec).map_err(|e| format!("--faults {spec:?}: {e}"))?)
        }
        None => None,
    };
    let trace_out = value_of("--trace-out");
    if let Some(p) = &trace_out {
        obs::validate_out_path("--trace-out", p)?;
    }
    let metrics_out = value_of("--metrics-out");
    if let Some(p) = &metrics_out {
        obs::validate_out_path("--metrics-out", p)?;
    }
    let trace_format = match value_of("--trace-format") {
        Some(f) => TraceFormat::parse(&f)?,
        None => TraceFormat::default(),
    };
    Ok(FigArgs {
        quick,
        paper_timing,
        json,
        jobs: pool::resolve_jobs(jobs_arg),
        faults,
        obs: ObsOut {
            trace_out,
            trace_format,
            metrics_out,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use memsched_schedulers::NamedScheduler;
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
        let bad_jobs: [&[&str]; 4] =
            [&["--jobs", "abc"], &["--jobs=abc"], &["--jobs"], &["--jobs", "--quick"]];
        for bad in bad_jobs {
            let e = parse_from(argv(bad)).unwrap_err();
            assert!(e.contains("--jobs") && e.contains("not a number"), "{bad:?}: {e}");
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
