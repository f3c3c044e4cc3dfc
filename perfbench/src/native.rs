//! `native-realistic`: unsupervised native jobs on realistic grids, one
//! at a time in a closed loop.
//!
//! Shapes 48³×16, 64³×8 and 96³×4, four sweeps each, under Hybrid
//! multiple, Hybrid master-only and Temporal blocked, on 1 node × 1
//! thread, 1 node × 2 threads and 2 nodes × 1 thread — 27 jobs a round,
//! never more than two busy threads. Only the two-node jobs move
//! inter-node fabric bytes. Exercises the grid kernel and halo code, the
//! native fabric and the interpreter; bypasses checkpoint, integrity,
//! durable, program cache and service. Every result must be bitwise
//! equal to `sequential_reference`, itself checked against the naive
//! Laplacian.

use crate::harness::{self, Args, OpError, Outcome, Round};
use crate::metrics::Metrics;
use crate::oracle::{
    matches_reference, naive_laplacian, relative_error, synthetic_grid, NAIVE_TOLERANCE,
};
use crate::probes::{self, CompileInput, Job};
use crate::stats::splitmix64;
use gpaw_fd::config::Approach;
use gpaw_fd::exec::sequential_reference;
use gpaw_grid::gridset::GridSet;
use gpaw_grid::stencil::StencilCoeffs;
use gpaw_hybrid_rt::{run_native, strategy_for, NativeJob};
use gpaw_simmpi::RunReport;
use std::path::Path;
use std::time::Instant;

/// Approaches whose jobs never drive more than two busy threads here.
pub const APPROACHES: [Approach; 3] = [
    Approach::HybridMultiple,
    Approach::HybridMasterOnly,
    Approach::TemporalBlocked,
];
/// (nodes, threads) geometries.
pub const GEOMETRIES: [(usize, usize); 3] = [(1, 1), (1, 2), (2, 1)];
/// Sweeps per realistic job.
pub const SWEEPS: usize = 4;

/// The realistic shapes (extent, grids); the reduced mode's are small.
pub fn shapes(reduced: bool) -> Vec<([usize; 3], usize)> {
    if reduced {
        vec![([24, 24, 24], 4), ([32, 24, 16], 2)]
    } else {
        vec![([48, 48, 48], 16), ([64, 64, 64], 8), ([96, 96, 96], 4)]
    }
}

/// A shape's synthetic data, its reference result, and whether the
/// reference agreed with the naive Laplacian.
pub struct Shape {
    pub ext: [usize; 3],
    pub n_grids: usize,
    pub sweeps: usize,
    pub seed: u64,
    pub reference: GridSet<f64>,
}

impl Shape {
    /// Build the shape's reference, and check the operator it applies
    /// against the naive evaluation: one sweep, every point of the first
    /// and last grid. (Over several sweeps the Laplacian's cancellation
    /// amplifies rounding differences far past any fixed tolerance; the
    /// multi-sweep reference composes the same checked operator.)
    pub fn new(ext: [usize; 3], n_grids: usize, sweeps: usize, seed: u64) -> Result<Shape, String> {
        let job = NativeJob::new(ext, n_grids, 1);
        let coef = StencilCoeffs::laplacian(job.spacing);
        let reference = sequential_reference::<f64>(ext, n_grids, seed, &coef, job.bc, sweeps);
        let one_sweep = sequential_reference::<f64>(ext, n_grids, seed, &coef, job.bc, 1);
        for g in [0, n_grids - 1] {
            let naive = naive_laplacian(&synthetic_grid(ext, seed, g), job.spacing, 1);
            let err = relative_error(one_sweep.grid(g), &naive);
            if err > NAIVE_TOLERANCE {
                return Err(format!(
                    "one sweep of {ext:?} grid {g} is {err:e} (relative) away from the naive \
                     Laplacian"
                ));
            }
        }
        Ok(Shape {
            ext,
            n_grids,
            sweeps,
            seed,
            reference,
        })
    }

    /// This shape as a native job.
    pub fn job(&self, nodes: usize, threads: usize) -> NativeJob {
        NativeJob::new(self.ext, self.n_grids, nodes)
            .with_threads(threads)
            .with_sweeps(self.sweeps)
            .with_seed(self.seed)
    }

    /// The shape's warm-up and probe job: Hybrid multiple on one node
    /// with two threads.
    pub fn representative(&self) -> Job {
        Job {
            approach: Approach::HybridMultiple,
            job: self.job(1, 2),
        }
    }
}

/// Per-shape data seeds drawn from the run seed.
pub fn shape_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = seed;
    (0..n).map(|_| splitmix64(&mut rng) % 1_000_003).collect()
}

/// Run one native job and check it; returns (seconds, report) on a
/// bitwise match.
fn run_checked(shape: &Shape, p: &Job) -> Result<(f64, RunReport), OpError> {
    let t = Instant::now();
    let run = run_native::<f64>(&p.job, strategy_for::<f64>(p.approach).as_ref())
        .map_err(|e| OpError::Failed(format!("{:?} on {:?}: {e}", p.approach, shape.ext)))?;
    let dt = t.elapsed().as_secs_f64();
    if !matches_reference(
        &run.sets,
        &run.map,
        shape.ext,
        &p.config(),
        &shape.reference,
    ) {
        return Err(OpError::Wrong(format!(
            "{:?} on {:?} ({} nodes × {} threads) is not bitwise equal to the reference",
            p.approach, shape.ext, p.job.nodes, p.job.threads
        )));
    }
    Ok((dt, run.report))
}

struct State {
    shapes: Vec<Shape>,
    /// (shape index, job), shape by shape in a fixed order: the order
    /// moves the allocator's high-water mark, so it does not follow the
    /// seed.
    jobs: Vec<(usize, Job)>,
}

fn setup(args: &Args) -> Result<State, String> {
    let dims = shapes(args.reduced);
    let seeds = shape_seeds(args.seed, dims.len());
    let shapes: Vec<Shape> = dims
        .iter()
        .zip(&seeds)
        .map(|(&(ext, n), &seed)| Shape::new(ext, n, SWEEPS, seed))
        .collect::<Result<_, _>>()?;
    let mut jobs = Vec::new();
    for (s, shape) in shapes.iter().enumerate() {
        for &(nodes, threads) in &GEOMETRIES {
            for &approach in &APPROACHES {
                jobs.push((
                    s,
                    Job {
                        approach,
                        job: shape.job(nodes, threads),
                    },
                ));
            }
        }
    }
    // Warm-up: one job per shape, unchecked (the measured jobs carry the
    // checks and count what fails them).
    for shape in &shapes {
        let p = shape.representative();
        run_native::<f64>(&p.job, strategy_for::<f64>(p.approach).as_ref())
            .map_err(|e| format!("warm-up on {:?}: {e}", shape.ext))?;
    }
    Ok(State { shapes, jobs })
}

pub fn run(args: &Args, state_dir: &Path) -> Result<Outcome, String> {
    let (st, setup_times) = harness::repeated_setup(|| setup(args))?;
    let mut traced_reports: Vec<RunReport> = Vec::new();
    // (flops, seconds) per (nodes, threads) geometry, over every round.
    let mut by_geometry = [(0.0, 0.0); GEOMETRIES.len()];
    let rounds = harness::measure(args, |i| {
        // Tracing keeps every job's report (its span ledger) in memory.
        let keep = harness::traced_round(args, i);
        let mut round = Round::default();
        for (s, p) in &st.jobs {
            round.flops += p.job.flops();
            let outcome = run_checked(&st.shapes[*s], p).map(|(dt, report)| {
                let g = GEOMETRIES
                    .iter()
                    .position(|&g| g == (p.job.nodes, p.job.threads))
                    .expect("jobs use the listed geometries");
                by_geometry[g].0 += p.job.flops();
                by_geometry[g].1 += dt;
                round.wall_s += dt;
                if keep {
                    traced_reports.push(report);
                }
                dt
            });
            round.record(outcome);
        }
        round
    });

    let metrics = if args.trace {
        let mut m = Metrics::default();
        layers(args, &st, &traced_reports, &rounds, state_dir, &mut m)?;
        m
    } else {
        harness::end_to_end_metrics(&setup_times, &rounds)
    };
    let notes = GEOMETRIES
        .iter()
        .zip(by_geometry)
        .map(|(&(nodes, threads), (flops, secs))| {
            (
                format!("gflops.{nodes}n{threads}t"),
                format!("{:.3}", flops / secs / 1e9),
            )
        })
        .collect();
    Ok(Outcome {
        rounds,
        metrics,
        notes,
    })
}

fn layers(
    args: &Args,
    st: &State,
    reports: &[RunReport],
    rounds: &[Round],
    state_dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    // Counts come from the first traced round.
    let reports = &reports[..st.jobs.len().min(reports.len())];
    let refs: Vec<&RunReport> = reports.iter().collect();
    harness::span_shares(&refs, m);
    m.set(
        "fabric.messages",
        reports.iter().map(|r| r.messages as f64).sum(),
    );
    m.set(
        "fabric.bytes",
        reports.iter().map(|r| r.total_network_bytes as f64).sum(),
    );
    m.set("trace.overhead", harness::trace_overhead(rounds));

    let inputs: Vec<CompileInput> = st.jobs.iter().map(|(_, p)| CompileInput::of(p)).collect();
    probes::compile(&inputs, m);
    probes::progcache(&inputs, m);

    let per_shape: Vec<Job> = st.shapes.iter().map(Shape::representative).collect();
    probes::simulate(&per_shape).record(m);
    probes::grid(&per_shape, m);
    probes::fabric(&probes::message_sizes(&inputs), m);
    probes::snapshots(&per_shape, state_dir, m)?;
    probes::service(&per_shape, m);
    probes::faults(&per_shape[0], args.seed, m)
}
