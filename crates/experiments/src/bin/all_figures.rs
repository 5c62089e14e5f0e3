//! Regenerates every figure in sequence.
//! Usage: `all_figures [--quick] [--paper-timing] [--jobs N] [--faults SPEC]
//! [--trace-out PATH] [--metrics-out PATH]`.
//!
//! When observability outputs are requested, each figure writes its own
//! files with the figure id inserted before the extension
//! (`trace.json` → `trace.fig03.json`, …).
use memsched_experiments::{cli, figures, obs};

fn main() {
    let args = cli::parse();
    for fig in figures::all_figures() {
        let fig = args.apply(fig);
        if let Err(e) = fig.run_and_print_with_jobs(None, args.jobs) {
            eprintln!("{} failed: {e}", fig.id);
            std::process::exit(1);
        }
        if let Err(e) = obs::export_figure(&fig, &args.obs.suffixed(fig.id)) {
            eprintln!("{} failed: {e}", fig.id);
            std::process::exit(1);
        }
        println!();
    }
}
