//! The prefix-cache routing figure: a seeded prefix-tree request
//! stream (the multi-GPU KV/prefix-cache serving scenario) swept over
//! cache pressure — tree bytes / aggregate GPU memory — at 0.5×, 1×,
//! 2× and 4×, comparing the residency-aware Router against DMDAR,
//! DARTS+LUF and EAGER on p99 latency, bytes transferred and
//! prefix-cache hit rate.
//!
//! Usage: `prefix_route [--quick] [--seed N] [--csv PATH]`.
//! Prints a human table plus CSV to stdout; `--csv` also writes the
//! CSV rows to a file. Malformed or unknown flags, a flag missing its
//! value, a `--csv` path in a missing directory and stray arguments
//! exit with status 2 before any cell runs.

use memsched_experiments::cli::{check_flags, value_of};
use memsched_experiments::obs::validate_out_path;
use memsched_experiments::prefix_route::{run_sweep, PressureRow, SweepConfig};

#[derive(Debug)]
struct Args {
    quick: bool,
    seed: u64,
    csv: Option<String>,
}

fn parse_from(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let args: Vec<String> = args.collect();
    check_flags(&args, &["--quick"], &["--seed", "--csv"])?;
    let seed = match value_of(&args, "--seed") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("--seed {v:?}: not a u64"))?,
        None => 42,
    };
    let csv = value_of(&args, "--csv");
    if let Some(p) = &csv {
        validate_out_path("--csv", p)?;
    }
    Ok(Args {
        quick: args.iter().any(|a| a == "--quick"),
        seed,
        csv,
    })
}

fn human_table(rows: &[PressureRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>9} {:>6} {:>12} {:>14} {:>9} {:>9}\n",
        "scheduler", "pressure", "tasks", "moved (MB)", "p99 (us)", "hit rate", "evictions"
    ));
    for r in rows {
        let o = r.report.online.clone().unwrap_or_default();
        out.push_str(&format!(
            "{:<10} {:>8}x {:>6} {:>12.1} {:>14.1} {:>9.4} {:>9}\n",
            r.scheduler,
            r.pressure,
            r.tasks,
            r.report.transfers_mb(),
            o.p99_latency as f64 / 1e3,
            r.report.cache_hit_rate(),
            r.report.total_evictions,
        ));
    }
    out
}

fn main() {
    let args = match parse_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let cfg = if args.quick {
        SweepConfig::quick(args.seed)
    } else {
        SweepConfig::full(args.seed)
    };
    let rows = match run_sweep(&cfg) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("prefix_route failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", human_table(&rows));
    println!();
    let mut csv = String::from(PressureRow::CSV_HEADER);
    csv.push('\n');
    for r in &rows {
        csv.push_str(&r.csv());
        csv.push('\n');
    }
    print!("{csv}");
    if let Some(path) = &args.csv {
        if let Err(e) = std::fs::write(path, &csv) {
            eprintln!("prefix_route failed: write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_every_flag_form() {
        let a = parse(&["--quick", "--seed", "7", "--csv=out.csv"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.seed, 7);
        assert_eq!(a.csv.as_deref(), Some("out.csv"));
        let a = parse(&["--seed=9"]).unwrap();
        assert!(!a.quick);
        assert_eq!(a.seed, 9);
        assert_eq!(a.csv, None);
    }

    #[test]
    fn rejects_malformed_input_before_any_cell_runs() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert!(err(&["--seed"]).contains("missing value"));
        assert!(err(&["--csv"]).contains("missing value"));
        assert!(err(&["--seed", "x"]).contains("not a u64"));
        assert!(err(&["--csv", "--quick"]).contains("missing value"));
        assert!(err(&["--csv", "/no/such/dir/x.csv"]).contains("does not exist"));
        assert!(err(&["--quick", "stray"]).contains("unknown argument"));
        assert!(err(&["--jobs", "2"]).contains("unknown flag"));
    }
}
