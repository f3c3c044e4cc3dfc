//! # gpaw-perfbench — one benchmark for the three planes
//!
//! Three workloads, one per plane, behind one command:
//!
//! * `des-fullscope` — the paper's Fig. 7 base point on the simulated
//!   Blue Gene/P ([`des`]);
//! * `native-realistic` — unsupervised native jobs on realistic grids
//!   ([`native`]);
//! * `service-resilient` — a four-tenant job stream with durable and
//!   faulted jobs through one `JobService` ([`service`]).
//!
//! An untraced run prints the end-to-end metrics; a traced run (`--trace
//! 1`) of the same workload prints the per-layer metrics, timed around
//! calls into each layer's public functions ([`probes`]) and read from
//! the reports the program returns. Every output is checked against
//! oracles the program does not compute ([`oracle`]). See `README.md`.

pub mod des;
pub mod harness;
pub mod host;
pub mod metrics;
pub mod native;
pub mod oracle;
pub mod probes;
pub mod service;
pub mod stats;

use harness::{Args, WorkloadName};
use std::path::PathBuf;

/// Run the workload `args` names and print its result line. Durable
/// state goes to a directory under `.bench_state/` in the working
/// directory, removed before returning.
pub fn run(args: &Args) -> Result<(), String> {
    let cpu0 = host::CpuTimes::read();
    let state_dir = PathBuf::from(".bench_state").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
    let outcome = match args.workload {
        WorkloadName::DesFullscope => des::run(args, &state_dir),
        WorkloadName::NativeRealistic => native::run(args, &state_dir),
        WorkloadName::ServiceResilient => service::run(args, &state_dir),
    };
    let cleanup = std::fs::remove_dir_all(&state_dir);
    // Leave `.bench_state` itself only if another run still uses it.
    let _ = std::fs::remove_dir(".bench_state");
    let outcome = outcome?;
    cleanup.map_err(|e| format!("cannot remove {}: {e}", state_dir.display()))?;
    harness::print_result(args, outcome, cpu0);
    Ok(())
}
