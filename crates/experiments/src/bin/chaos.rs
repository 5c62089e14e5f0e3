//! Standalone chaos driver: the soak harness's randomized
//! faults × overload matrix (`memsched_experiments::chaos`) as a CLI.
//!
//! ```text
//! chaos [--seeds N] [--sched eager|dmda|dmdar|hmetis|mhfp|darts|router|all]
//!       [--jobs N] [--out CSV] [--quick]
//! ```
//!
//! For every seed the driver builds one composition (overloaded
//! deadline/class-stamped Poisson stream, seeded fault plan, backlog
//! bound), runs every requested scheduler family under all three shed
//! policies, passes each completed cell through
//! `memsched_platform::validate`, and verifies the whole matrix digests
//! byte-identically on 1, 2 and `--jobs` pool workers. One CSV row per
//! cell summarizes the outcome ledger. A violation or a divergence
//! prints `chaos: seed S SCHED/POLICY: <what broke>` and exits with
//! status 1, so the exit code is the pass/fail signal for CI.
//!
//! `--quick` caps the sweep at 2 seeds regardless of `--seeds` (the CI
//! tier); malformed flags and an `--out` path in a missing directory
//! exit with status 2 before anything runs.

use memsched_experiments::chaos::{check_cell, compose, digest, Chaos, Outcome, POLICIES};
use memsched_experiments::cli::{check_flags, parse_scheds, value_of};
use memsched_experiments::obs::validate_out_path;
use memsched_experiments::pool;
use memsched_platform::ShedPolicy;
use memsched_schedulers::NamedScheduler;

#[derive(Clone, Debug)]
struct ChaosArgs {
    seeds: u64,
    scheds: Vec<NamedScheduler>,
    jobs: usize,
    out: Option<String>,
}

const KNOWN_VALUE_FLAGS: &[&str] = &["--seeds", "--sched", "--jobs", "--out"];

fn parse_from(args: Vec<String>) -> Result<ChaosArgs, String> {
    check_flags(&args, &["--quick"], KNOWN_VALUE_FLAGS)?;
    let value_of = |flag: &str| value_of(&args, flag);
    let quick = args.iter().any(|a| a == "--quick");
    let mut seeds = match value_of("--seeds") {
        Some(s) => {
            let n = s
                .parse::<u64>()
                .map_err(|_| format!("--seeds {s:?}: not a number"))?;
            if n == 0 {
                return Err("--seeds 0: need at least one seed".to_string());
            }
            n
        }
        None => 8,
    };
    if quick {
        seeds = seeds.min(2);
    }
    let scheds = parse_scheds(&value_of("--sched").unwrap_or_else(|| "all".to_string()))?;
    let jobs = match value_of("--jobs") {
        Some(j) => {
            let n = j
                .parse::<usize>()
                .map_err(|_| format!("--jobs {j:?}: not a number"))?;
            if n == 0 {
                return Err("--jobs 0: need at least one worker".to_string());
            }
            n
        }
        None => pool::resolve_jobs(None),
    };
    let out = value_of("--out");
    if let Some(p) = &out {
        validate_out_path("--out", p)?;
    }
    Ok(ChaosArgs {
        seeds,
        scheds,
        jobs,
        out,
    })
}

const CSV_HEADER: &str = "seed,scheduler,shed_policy,tasks,completed,shed,deadline_expired,\
                          deadline_violations,stuck,p99_latency_ns,goodput_tps";

/// Run one cell, check it, and render its CSV row.
fn cell_row(
    seed: u64,
    chaos: &Chaos,
    named: &NamedScheduler,
    policy: ShedPolicy,
) -> Result<String, String> {
    let n = chaos.ts.num_tasks();
    Ok(match check_cell(chaos, named, policy)? {
        Outcome::Done(report) => {
            let s = report.online.as_ref().expect("online stats");
            format!(
                "{seed},{},{},{n},{},{},{},{},0,{},{:.3}",
                report.scheduler,
                policy.as_str(),
                s.tasks_admitted,
                s.tasks_shed,
                s.deadline_expired,
                s.deadline_violations,
                s.p99_latency,
                s.goodput_tps,
            )
        }
        Outcome::Stuck { completed } => format!(
            "{seed},{},{},{n},{completed},0,0,0,1,0,0.000",
            named.label(),
            policy.as_str()
        ),
    })
}

/// The CSV rows of one seed, after its matrix digested identically on 1,
/// 2 and `--jobs` workers. `Err` names the first failing cell.
fn soak(seed: u64, args: &ChaosArgs) -> Result<Vec<String>, String> {
    let chaos = compose(seed);
    let cells: Vec<(NamedScheduler, ShedPolicy)> = args
        .scheds
        .iter()
        .flat_map(|f| POLICIES.iter().map(move |&p| (f.clone(), p)))
        .collect();
    let name = |(named, policy): &(NamedScheduler, ShedPolicy)| {
        format!("{}/{}", named.label(), policy.as_str())
    };
    let run_all = |jobs: usize| -> Vec<String> {
        pool::run_indexed(&cells, jobs, |_, (named, policy)| {
            digest(&chaos, named, *policy)
        })
    };
    let one = run_all(1);
    for jobs in [2, args.jobs] {
        let other = run_all(jobs);
        if let Some(i) = (0..cells.len()).find(|&i| one[i] != other[i]) {
            return Err(format!("{}: 1 vs {jobs} workers diverge", name(&cells[i])));
        }
    }
    cells
        .iter()
        .map(|cell| {
            cell_row(seed, &chaos, &cell.0, cell.1).map_err(|e| format!("{}: {e}", name(cell)))
        })
        .collect()
}

fn main() {
    let args = match parse_from(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos: {e}");
            std::process::exit(2);
        }
    };
    let mut rows = vec![CSV_HEADER.to_string()];
    for seed in 1..=args.seeds {
        match soak(seed, &args) {
            Ok(seed_rows) => rows.extend(seed_rows),
            Err(e) => {
                eprintln!("chaos: seed {seed} {e}");
                std::process::exit(1);
            }
        }
    }
    for row in &rows {
        println!("{row}");
    }
    if let Some(path) = &args.out {
        let mut csv = rows.join("\n");
        csv.push('\n');
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("chaos: write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("chaos: wrote {path}");
    }
    eprintln!(
        "chaos: {} seeds x {} cells passed the validator",
        args.seeds,
        args.scheds.len() * POLICIES.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ChaosArgs, String> {
        parse_from(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn out_path_is_checked_before_the_soak_runs() {
        let a = parse(&["--quick", "--seeds", "5", "--out", "chaos.csv"]).unwrap();
        assert_eq!(a.seeds, 2, "--quick caps the sweep");
        assert_eq!(a.out.as_deref(), Some("chaos.csv"));
        let err = parse(&["--out", "/no/such/dir/x.csv"]).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        assert!(parse(&["--out"]).unwrap_err().contains("missing value"));
    }

    #[test]
    fn router_and_all_parse() {
        assert_eq!(
            parse(&["--sched", "router"]).unwrap().scheds,
            vec![NamedScheduler::Router]
        );
        let all = parse(&["--sched", "all"]).unwrap().scheds;
        assert_eq!(all, memsched_schedulers::FAMILIES.to_vec());
        assert_eq!(parse(&[]).unwrap().scheds, all, "--sched defaults to all");
    }
}
