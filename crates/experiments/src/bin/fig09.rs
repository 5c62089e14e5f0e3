//! Regenerates Figure 09 of the paper.
//! Usage: `fig09 [--quick] [--paper-timing] [--json PATH] [--jobs N]
//! [--faults SPEC] [--trace-out PATH] [--metrics-out PATH]`.
use memsched_experiments::{cli, figures};

fn main() {
    let args = cli::parse();
    let fig = args.apply(figures::fig09());
    if let Err(e) = fig.run_and_print_with_jobs(args.json.as_deref(), args.jobs) {
        eprintln!("fig09 failed: {e}");
        std::process::exit(1);
    }
    if let Err(e) = args.export_obs(&fig) {
        eprintln!("fig09 failed: {e}");
        std::process::exit(1);
    }
}
