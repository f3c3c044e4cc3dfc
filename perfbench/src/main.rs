//! `gpaw-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one diagnostics line and, last, one JSON result line; see
//! `README.md` for the workloads and metrics.

use gpaw_perfbench::harness::{Args, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = gpaw_perfbench::run(&args) {
        eprintln!("{}: {e}", args.workload.name());
        std::process::exit(1);
    }
}
