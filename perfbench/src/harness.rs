//! What every workload shares: arguments, repeated set-up, the measured
//! loop of whole rounds, the end-to-end metrics, and the result line.

use crate::host::{self, CpuTimes};
use crate::metrics::{end_to_end, per_layer, Metrics};
use crate::stats::{max, median, median_or_nan, tail};
use gpaw_des::SpanKind;
use gpaw_simmpi::RunReport;
use std::time::Instant;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    DesFullscope,
    NativeRealistic,
    ServiceResilient,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::DesFullscope,
        WorkloadName::NativeRealistic,
        WorkloadName::ServiceResilient,
    ];

    /// The `--workload` value.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::DesFullscope => "des-fullscope",
            WorkloadName::NativeRealistic => "native-realistic",
            WorkloadName::ServiceResilient => "service-resilient",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: WorkloadName,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub reduced: bool,
}

pub const USAGE: &str = "usage: gpaw-perfbench --workload <des-fullscope|native-realistic|\
service-resilient> --seed <n> --seconds <s> --trace <0|1> [--reduced]";

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--reduced]`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut reduced) =
            (None, None, None, None, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--reduced" {
                reduced = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WorkloadName::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            reduced,
        })
    }
}

/// Set-ups per run: `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest measured rounds, so no end-to-end metric rests on one sample.
pub const MIN_ROUNDS: usize = 3;
/// A traced run alternates untraced and traced rounds, at least two each,
/// to report its own overhead.
pub const MIN_TRACED_ROUNDS: usize = 4;

/// Why an operation failed.
#[derive(Debug)]
pub enum OpError {
    /// The program returned an error.
    Failed(String),
    /// The program's output disagreed with an oracle.
    Wrong(String),
}

/// One round of a workload's operations.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the round's operations (the benchmark's own checks
    /// excluded where they can be kept apart).
    pub wall_s: f64,
    /// Each completed operation's latency.
    pub latencies: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations whose output failed an oracle (counted in `failed` too).
    pub wrong: u64,
    /// Stencil flops the round retired (modelled flops on the simulator).
    pub flops: f64,
}

impl Round {
    /// Count one attempted operation: its latency, or why it failed.
    pub fn record(&mut self, outcome: Result<f64, OpError>) {
        self.attempted += 1;
        match outcome {
            Ok(latency) => self.latencies.push(latency),
            Err(e) => {
                self.failed += 1;
                let msg = match e {
                    OpError::Failed(m) => m,
                    OpError::Wrong(m) => {
                        self.wrong += 1;
                        m
                    }
                };
                eprintln!("operation failed: {msg}");
            }
        }
    }
}

/// Run `setup` [`SETUPS`] times, keeping the last state (each earlier one
/// is dropped before the next starts) and every duration.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("SETUPS > 0"), times))
}

/// Run whole rounds until the run's seconds have passed and at least
/// [`MIN_ROUNDS`] ([`MIN_TRACED_ROUNDS`] when tracing) are done; the
/// reduced mode runs just those. `round(i)` runs round `i`.
pub fn measure(args: &Args, mut round: impl FnMut(usize) -> Round) -> Vec<Round> {
    let min_rounds = if args.trace {
        MIN_TRACED_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let seconds = if args.reduced { 0.0 } else { args.seconds };
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        rounds.push(round(rounds.len()));
    }
    rounds
}

/// Whether round `i` is traced: a traced run alternates untraced (even)
/// and traced (odd) rounds.
pub fn traced_round(args: &Args, i: usize) -> bool {
    args.trace && i % 2 == 1
}

/// The end-to-end metrics of a run (peak RSS is added at the end of the
/// run, after everything it allocated).
pub fn end_to_end_metrics(setup_times: &[f64], rounds: &[Round]) -> Metrics {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let wall = median(&walls);
    let latencies: Vec<f64> = rounds.iter().flat_map(|r| r.latencies.clone()).collect();
    let mut m = Metrics::default();
    m.set("setup_s", median(setup_times));
    m.set("wall_s", wall);
    m.set("gflops", rounds[0].flops / wall / 1e9);
    m.set("jobs_per_s", rounds[0].attempted as f64 / wall);
    // Every round runs the same jobs in the same order, so job i of one
    // round is job i of every other. The p50 is the median over a round's
    // jobs of each job's median over rounds: the pooled median of a few,
    // widely spread jobs (the simulator's six points) would fall between
    // two of them, and one round's median carries that round's noise. A
    // failed job breaks the alignment; then each round's median stands in.
    let done = || rounds.iter().filter(|r| !r.latencies.is_empty());
    let jobs = rounds[0].latencies.len();
    let per_job: Vec<f64> = if jobs > 0 && rounds.iter().all(|r| r.latencies.len() == jobs) {
        (0..jobs)
            .map(|i| median(&rounds.iter().map(|r| r.latencies[i]).collect::<Vec<_>>()))
            .collect()
    } else {
        done().map(|r| median(&r.latencies)).collect()
    };
    m.set("job_p50_s", median_or_nan(&per_job));
    // The 90th percentile when at least ten samples lie beyond it;
    // otherwise (the simulator's few, long points) the median over rounds
    // of each round's slowest job.
    let slowest: Vec<f64> = done().map(|r| max(&r.latencies)).collect();
    m.set(
        "job_p90_s",
        tail(&latencies, 0.9).unwrap_or_else(|| median_or_nan(&slowest)),
    );
    m
}

/// `trace.overhead`: traced rounds (odd) against untraced rounds (even).
pub fn trace_overhead(rounds: &[Round]) -> f64 {
    let walls = |odd: bool| -> Vec<f64> {
        rounds
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 1) == odd)
            .map(|(_, r)| r.wall_s)
            .collect()
    };
    median(&walls(true)) / median(&walls(false)) - 1.0
}

/// Span-ledger shares over a set of run reports, weighted by thread time.
pub fn span_shares(reports: &[&RunReport], m: &mut Metrics) {
    let total: f64 = reports
        .iter()
        .map(|r| r.threads as f64 * r.makespan.as_secs_f64())
        .sum();
    let sum = |kinds: &[SpanKind]| -> f64 {
        reports
            .iter()
            .flat_map(|r| kinds.iter().map(|&k| r.phases.get(k).as_secs_f64()))
            .sum::<f64>()
            / total
    };
    let compute = sum(&[SpanKind::Compute]);
    let halo = sum(&[SpanKind::HaloPack, SpanKind::HaloUnpack]);
    let comm = sum(&[SpanKind::Post, SpanKind::Wait, SpanKind::LibLock]);
    let barrier = sum(&[SpanKind::ThreadBarrier, SpanKind::Collective]);
    m.set("hybrid-rt.share.compute", compute);
    m.set("hybrid-rt.share.halo", halo);
    m.set("hybrid-rt.share.comm", comm);
    m.set("hybrid-rt.share.barrier", barrier);
    m.set(
        "hybrid-rt.share.unattributed",
        (1.0 - compute - halo - comm - barrier).max(0.0),
    );
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub rounds: Vec<Round>,
    pub metrics: Metrics,
    /// `key=value` diagnostics printed beside the result.
    pub notes: Vec<(String, String)>,
}

/// Print the diagnostics line and the result line (always last).
pub fn print_result(args: &Args, mut out: Outcome, cpu0: Option<CpuTimes>) {
    let attempted: u64 = out.rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = out.rounds.iter().map(|r| r.failed).sum();
    let wrong: u64 = out.rounds.iter().map(|r| r.wrong).sum();
    let correct = wrong == 0;
    let cpu1 = CpuTimes::read();
    let steal = match (cpu0, cpu1) {
        (Some(a), Some(b)) => format!("{:.4}", a.steal_share_until(&b)),
        _ => "unavailable".into(),
    };
    // Read before the calibration below allocates its buffers.
    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    let walls: Vec<String> = out
        .rounds
        .iter()
        .map(|r| format!("{:.3}", r.wall_s))
        .collect();
    out.notes.push(("round_wall_s".into(), walls.join(",")));
    out.notes.push(("nproc".into(), host::nproc().to_string()));
    out.notes.push(("steal_share".into(), steal));
    out.notes.push((
        "calib.copy_gb_s".into(),
        format!("{:.3}", host::copy_gb_s()),
    ));
    out.notes.push((
        "calib.stencil_gflops".into(),
        format!("{:.3}", host::stencil_gflops()),
    ));
    let defs = if args.trace {
        per_layer()
    } else {
        out.metrics.set("peak_rss_mb", rss);
        end_to_end()
    };
    let notes: Vec<String> = out.notes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# {} seed={} {}",
        args.workload.name(),
        args.seed,
        notes.join(" ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        out.metrics.render(&defs)
    );
}
