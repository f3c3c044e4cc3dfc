//! `des-fullscope`: the Fig. 7 base point on the simulated Blue Gene/P.
//!
//! 1024 cores (a 256-node mesh, simulated at full scope), 256 grids of
//! 192³, one sweep, all six approaches — batch 8 except Flat original,
//! which exchanges per grid. One round simulates the six points; nearly
//! all of its time is the event loop of `simmpi`/`des`/`netsim`. Every
//! point is held to a closed-form count of its messages, bytes and flops
//! and to the flops-over-peak floor on its makespan. The native layers
//! are never touched.

use crate::harness::{self, Args, OpError, Outcome, Round};
use crate::metrics::Metrics;
use crate::oracle::{makespan_floor_s, DesCount};
use crate::probes::{self, CompileInput, Job, SimLedger};
use crate::stats::splitmix64;
use gpaw_bgp_hw::spec::CostModel;
use gpaw_fd::config::{Approach, FdConfig};
use gpaw_fd::timed::{job_map, run_timed, ScopeSel, TimedJob};
use gpaw_hybrid_rt::NativeJob;
use gpaw_simmpi::{Machine, RunReport, Scope};
use std::path::Path;
use std::time::Instant;

/// One simulated point and what it must report.
struct Point {
    approach: Approach,
    job: TimedJob,
    expect: DesCount,
}

/// The six points in a seed-chosen order.
fn points(args: &Args) -> Vec<Point> {
    // The reduced mode keeps the full-scope mesh but shrinks the job 64×.
    let (cores, ext, n_grids) = if args.reduced {
        (64, [48, 48, 48], 64)
    } else {
        (1024, [192, 192, 192], 256)
    };
    let mut order: Vec<Approach> = Approach::ALL.to_vec();
    let mut rng = args.seed;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
    }
    order
        .into_iter()
        .map(|approach| {
            let batch = if approach == Approach::FlatOriginal {
                1
            } else {
                8
            };
            let job = TimedJob {
                cores,
                grid_ext: ext,
                n_grids,
                bytes_per_point: 8,
                config: FdConfig::paper(approach).with_batch(batch).with_sweeps(1),
            };
            let map = job_map(&job);
            // Flat ranks decompose over the process grid; hybrid ranks and
            // flat static groups over the node grid.
            let dims = match approach {
                Approach::FlatOriginal | Approach::FlatOptimized => map.proc_dims,
                _ => map.partition.node_shape.dims,
            };
            let expect = DesCount::new(approach, cores, ext, n_grids, batch, 1, dims);
            Point {
                approach,
                job,
                expect,
            }
        })
        .collect()
}

/// What the simulator must get right about one point.
fn check(p: &Point, r: &RunReport) -> Result<(), OpError> {
    let counts_match = r.messages == p.expect.messages
        && r.bytes_per_node == p.expect.bytes_per_node
        && r.flops == p.expect.flops as f64;
    if counts_match && r.seconds() >= makespan_floor_s(r.flops, p.job.cores) {
        return Ok(());
    }
    Err(OpError::Wrong(format!(
        "{:?}: simulated messages/bytes/flops ({}, {}, {}) or makespan {} s disagree with \
         the closed form {:?}",
        p.approach,
        r.messages,
        r.bytes_per_node,
        r.flops,
        r.seconds(),
        p.expect
    )))
}

/// Every instantiated rank's compile input (full scope: all ranks).
fn compile_inputs(points: &[Point]) -> Vec<CompileInput> {
    points
        .iter()
        .map(|p| {
            let map = job_map(&p.job);
            CompileInput {
                cfg: p.job.config,
                ranks: Machine::instantiated_ranks(&map, Scope::Full),
                threads: map.partition.threads_per_process(),
                map,
                ext: p.job.grid_ext,
                n_grids: p.job.n_grids,
            }
        })
        .collect()
}

pub fn run(args: &Args, state_dir: &Path) -> Result<Outcome, String> {
    let model = CostModel::bgp();
    // Set-up: the points, their closed-form counts, one compile of every
    // instantiated rank's programs, and — the warm-up — one simulation of
    // a cheap point, Hybrid multiple. Warm-ups go unchecked: the measured
    // operations carry the checks and count what fails them.
    let (points, setup_times) = harness::repeated_setup(|| {
        let points = points(args);
        let mut warm = Metrics::default();
        probes::compile(&compile_inputs(&points), &mut warm);
        let hm = points
            .iter()
            .find(|p| p.approach == Approach::HybridMultiple)
            .expect("all six approaches run");
        run_timed(&hm.job, &model, ScopeSel::Full);
        Ok(points)
    })?;

    let mut sims: Vec<SimLedger> = Vec::new();
    let mut reports: Vec<RunReport> = Vec::new();
    let rounds = harness::measure(args, |i| {
        let traced = harness::traced_round(args, i);
        let mut round = Round::default();
        let mut sim = SimLedger::default();
        for p in &points {
            let t = Instant::now();
            let r = run_timed(&p.job, &model, ScopeSel::Full);
            let dt = t.elapsed().as_secs_f64();
            round.wall_s += dt;
            round.flops += p.expect.flops as f64;
            round.record(check(p, &r).map(|()| dt));
            if traced {
                sim.add(p.approach, &r, dt);
                if reports.len() < points.len() {
                    reports.push(r);
                }
            }
        }
        if traced {
            sims.push(sim);
        }
        round
    });

    let metrics = if args.trace {
        let mut m = Metrics::default();
        layers(args, &points, &sims, &reports, &rounds, state_dir, &mut m)?;
        m
    } else {
        harness::end_to_end_metrics(&setup_times, &rounds)
    };
    // Host seconds per approach, median over the traced rounds.
    let notes = Approach::ALL
        .iter()
        .filter_map(|&a| {
            let secs: Vec<f64> = sims
                .iter()
                .filter_map(|s| s.by_approach.iter().find(|x| x.0 == a).map(|x| x.2))
                .collect();
            (!secs.is_empty()).then(|| {
                (
                    format!("host_s.{}", a.slug()),
                    format!("{:.3}", crate::stats::median(&secs)),
                )
            })
        })
        .collect();
    Ok(Outcome {
        rounds,
        metrics,
        notes,
    })
}

/// The traced run's per-layer metrics.
fn layers(
    args: &Args,
    points: &[Point],
    sims: &[SimLedger],
    reports: &[RunReport],
    rounds: &[Round],
    state_dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    // Simulator: the median traced round, plus per-approach rates.
    let mut by_time: Vec<&SimLedger> = sims.iter().collect();
    by_time.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    by_time[by_time.len() / 2].record(m);
    let refs: Vec<&RunReport> = reports.iter().collect();
    harness::span_shares(&refs, m);
    m.set("trace.overhead", harness::trace_overhead(rounds));

    let inputs = compile_inputs(points);
    probes::compile(&inputs, m);
    probes::progcache(&inputs, m);

    // The native layers at the simulated job's sizes: one Hybrid
    // multiple node's box of the grid, with one thread's share of the
    // grids, and every point's rank-0 message sizes.
    let hm = points
        .iter()
        .find(|p| p.approach == Approach::HybridMultiple)
        .expect("all six approaches run");
    let map = job_map(&hm.job);
    let sub = gpaw_fd::plan::RankPlan::for_rank(&map, hm.job.grid_ext, 0, 8, &hm.job.config).sub;
    let probe = Job {
        approach: Approach::HybridMultiple,
        job: NativeJob::new(sub.ext, hm.job.n_grids / 4, 1)
            .with_threads(2)
            .with_seed(args.seed),
    };
    probes::grid(&[probe], m);
    let (msgs, bytes) = probes::fabric(&probes::message_sizes(&inputs), m);
    m.set("fabric.messages", msgs as f64);
    m.set("fabric.bytes", bytes as f64);
    probes::snapshots(&[probe], state_dir, m)?;
    probes::service(&[probe], m);
    probes::faults(&probe, args.seed, m)
}
