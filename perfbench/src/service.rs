//! `service-resilient`: a four-tenant job stream through one
//! `JobService`.
//!
//! A closed loop keeps two jobs outstanding against one worker, so a
//! slower service receives less load. A round submits 40 jobs: 19 tiny
//! ones bound by dispatch, compile and cache lookups; 12 realistic ones
//! bound by the supervisor's snapshot clones and digests; 5 durable
//! realistic ones that spill every second epoch (and the last) with
//! CRC32 to disk, each resubmitted under its name once it completes and
//! resuming at its final epoch; and 4 tiny two-node jobs whose rank 0
//! panics once in a send, rolled back and replayed by the supervisor —
//! 45 operations in all. Every result's digest must equal the digest of
//! `sequential_reference` cut into the job's shards.

use crate::harness::{self, Args, OpError, Outcome, Round};
use crate::metrics::Metrics;
use crate::native::{shape_seeds, shapes, Shape, SWEEPS};
use crate::oracle::reference_digest;
use crate::probes::{self, CompileInput, Job};
use crate::stats::{median_or_nan, splitmix64};
use gpaw_fd::config::Approach;
use gpaw_hybrid_rt::{
    FaultPlan, JobHandle, JobService, Priority, RetryPolicy, ServiceConfig, ServiceOutcome,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TENANTS: [&str; 4] = ["atlas", "borr", "ceres", "dione"];
/// Sweeps of the tiny jobs.
const TINY_SWEEPS: usize = 2;
/// Watchdog of the faulted jobs: the supervisor learns of the panicked
/// rank when its peer's receive times out.
const FAULT_RECV_TIMEOUT_MS: u64 = 250;

/// Tiny shapes: dispatch-, compile- and lookup-bound.
fn tiny_shapes() -> Vec<([usize; 3], usize)> {
    vec![([8, 6, 6], 2), ([10, 8, 6], 3), ([12, 10, 8], 4)]
}

/// What one submission is, and what it must report.
#[derive(Debug, Clone)]
struct Op {
    shape: usize,
    tenant: &'static str,
    run: Job,
    kind: Kind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    Clean,
    /// Rank 0 panics once; the supervisor must retry.
    Faulted,
    /// First submission of a durable job under `name`.
    Durable(String),
    /// The same name again: must resume at its final epoch with the
    /// first submission's digest.
    Resume(String, u64),
}

struct State {
    shapes: Vec<Shape>,
    /// Expected digest per (shape, nodes).
    digests: BTreeMap<(usize, usize), u64>,
    service: JobService<f64>,
    durable_root: PathBuf,
    /// One round's fresh submissions, in submission order.
    ops: Vec<Op>,
}

/// The round's 40 fresh submissions. Shapes 0..r are realistic, r.. tiny.
fn mix(st_shapes: &[Shape], realistic: usize, seed: u64) -> Vec<Op> {
    use Approach::{HybridMasterOnly as Hmo, HybridMultiple as Hm, TemporalBlocked as Tb};
    let mut rng = seed ^ 0x0073_6572_7669_6365;
    let mut ops = Vec::new();
    let push = |ops: &mut Vec<Op>, shape: usize, approach, nodes, threads, kind, rng: &mut u64| {
        ops.push(Op {
            shape,
            tenant: TENANTS[(splitmix64(rng) % 4) as usize],
            run: Job {
                approach,
                job: st_shapes[shape].job(nodes, threads),
            },
            kind,
        });
    };
    // 12 realistic, supervised.
    for s in 0..realistic {
        for (a, nodes, threads) in [(Hm, 1, 2), (Hmo, 2, 1), (Tb, 1, 2), (Hmo, 1, 1)] {
            push(&mut ops, s, a, nodes, threads, Kind::Clean, &mut rng);
        }
    }
    // 5 durable realistic, all of the middle shape, so the tail they
    // form is one cluster.
    for k in 0..5 {
        let name = format!("d{k}");
        push(
            &mut ops,
            realistic / 2,
            Hm,
            1,
            2,
            Kind::Durable(name),
            &mut rng,
        );
    }
    // 4 faulted tiny two-node jobs (the 12×10×8 shape is deep enough
    // for temporal blocking's fused halo on two nodes).
    let deep = st_shapes.len() - 1;
    for a in [Hm, Hmo, Tb, Hm] {
        push(&mut ops, deep, a, 2, 1, Kind::Faulted, &mut rng);
    }
    // 19 tiny clean jobs over every tiny shape, approach and geometry;
    // temporal blocking stays on one node, where every shape is deep
    // enough for its fused halo.
    let tiny: Vec<usize> = (realistic..st_shapes.len()).collect();
    let combos = [
        (Hm, 1, 2),
        (Hmo, 2, 1),
        (Tb, 1, 2),
        (Hm, 2, 1),
        (Hmo, 1, 1),
        (Tb, 1, 1),
    ];
    for i in 0..19 {
        let (a, nodes, threads) = combos[i % combos.len()];
        push(
            &mut ops,
            tiny[i % tiny.len()],
            a,
            nodes,
            threads,
            Kind::Clean,
            &mut rng,
        );
    }
    for op in &mut ops {
        if op.kind == Kind::Faulted {
            op.run.job = op
                .run
                .job
                .with_recv_timeout_ms(FAULT_RECV_TIMEOUT_MS)
                .with_fault(FaultPlan::quiet(seed).with_panic_on_send(0, splitmix64(&mut rng) % 3));
        }
    }
    // A fixed interleave (stride 17, coprime with 40) spreads each kind
    // over the round. The order does not follow the seed: with a closed
    // loop every job queues behind its predecessor, so the order shapes
    // the latency distribution, and a fixed order keeps the percentiles
    // comparable between seeds.
    let n = ops.len();
    let mut spread: Vec<(usize, Op)> = ops
        .into_iter()
        .enumerate()
        .map(|(i, op)| (i * 17 % n, op))
        .collect();
    spread.sort_by_key(|(pos, _)| *pos);
    spread.into_iter().map(|(_, op)| op).collect()
}

fn setup(args: &Args, state_dir: &Path) -> Result<State, String> {
    let realistic = shapes(args.reduced);
    let dims: Vec<([usize; 3], usize)> = realistic.iter().copied().chain(tiny_shapes()).collect();
    let seeds = shape_seeds(args.seed, dims.len());
    let shapes: Vec<Shape> = dims
        .iter()
        .zip(&seeds)
        .enumerate()
        .map(|(i, (&(ext, n), &seed))| {
            let sweeps = if i < realistic.len() {
                SWEEPS
            } else {
                TINY_SWEEPS
            };
            Shape::new(ext, n, sweeps, seed)
        })
        .collect::<Result<_, _>>()?;
    let mut digests = BTreeMap::new();
    for (s, shape) in shapes.iter().enumerate() {
        for nodes in [1, 2] {
            let p = Job {
                approach: Approach::HybridMultiple,
                job: shape.job(nodes, 1),
            };
            digests.insert(
                (s, nodes),
                reference_digest(&p.map(), shape.ext, &p.config(), &shape.reference),
            );
        }
    }
    let durable_root = state_dir.join("durable");
    if durable_root.exists() {
        std::fs::remove_dir_all(&durable_root)
            .map_err(|e| format!("cannot clear {}: {e}", durable_root.display()))?;
    }
    let service = JobService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 256,
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
        },
        durable_root: Some(durable_root.clone()),
        spill_every: 2,
        ..ServiceConfig::default()
    });
    let ops = mix(&shapes, realistic.len(), args.seed);
    let st = State {
        shapes,
        digests,
        service,
        durable_root,
        ops,
    };
    // Warm-up: one job per shape, unchecked (the measured jobs carry the
    // checks and count what fails them).
    for s in 0..st.shapes.len() {
        let op = Op {
            shape: s,
            tenant: TENANTS[0],
            run: st.shapes[s].representative(),
            kind: Kind::Clean,
        };
        if let Err(e) = submit(&st, &op, "warm")?.wait().result {
            return Err(format!("warm-up on {:?}: {e}", st.shapes[s].ext));
        }
    }
    Ok(st)
}

fn submit(st: &State, op: &Op, round: &str) -> Result<JobHandle<f64>, String> {
    let svc = &st.service;
    let handle = match &op.kind {
        Kind::Durable(name) | Kind::Resume(name, _) => svc.submit_durable(
            op.tenant,
            Priority::Normal,
            op.run.approach,
            op.run.job,
            &format!("{round}-{name}"),
        ),
        _ => svc.submit(op.tenant, Priority::Normal, op.run.approach, op.run.job),
    };
    handle.map_err(|e| format!("submission bounced: {e}"))
}

/// Hold an outcome to its oracle; returns the result's digest.
fn check(st: &State, op: &Op, o: &ServiceOutcome<f64>) -> Result<u64, OpError> {
    let r = o
        .result
        .as_ref()
        .map_err(|e| OpError::Failed(format!("{:?} job failed: {e}", op.kind)))?;
    let want = st.digests[&(op.shape, op.run.job.nodes)];
    let shape = &st.shapes[op.shape];
    let wrong = |what: String| {
        Err(OpError::Wrong(format!(
            "{:?} on {:?}: {what}",
            op.kind, shape.ext
        )))
    };
    if r.digest != want {
        return wrong(format!(
            "digest {:#x} is not the reference's {want:#x}: not bitwise equal",
            r.digest
        ));
    }
    match &op.kind {
        Kind::Faulted if r.recovery.attempts < 2 => wrong("the injected panic never fired".into()),
        Kind::Clean | Kind::Durable(_) if r.recovery.attempts != 1 => {
            wrong(format!("a clean job took {} attempts", r.recovery.attempts))
        }
        Kind::Durable(_) if r.resumed_from_epoch != 0 => wrong(format!(
            "a fresh durable job resumed from {}",
            r.resumed_from_epoch
        )),
        Kind::Resume(_, first) if r.resumed_from_epoch != shape.sweeps || r.digest != *first => {
            wrong(format!(
                "resubmission resumed from epoch {} (want {}) with digest {:#x} (first {first:#x})",
                r.resumed_from_epoch, shape.sweeps, r.digest
            ))
        }
        _ => Ok(r.digest),
    }
}

/// What a traced round keeps.
#[derive(Default)]
struct Ledger {
    queued: Vec<f64>,
    ran: Vec<f64>,
    attempts: u64,
    epochs_replayed: u64,
    retransmitted: u64,
    messages: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
}

fn round(st: &State, i: usize, ledger: Option<&mut Ledger>) -> Round {
    let tag = format!("r{i}");
    let before = st.service.cache_stats();
    let mut led = Ledger::default();
    let mut out = Round::default();
    let mut todo: VecDeque<Op> = st.ops.iter().cloned().collect();
    let mut pending: VecDeque<(Op, JobHandle<f64>)> = VecDeque::new();
    let t = Instant::now();
    while !todo.is_empty() || !pending.is_empty() {
        while pending.len() < 2 {
            let Some(op) = todo.pop_front() else { break };
            out.flops += op.run.job.flops();
            match submit(st, &op, &tag) {
                Ok(h) => pending.push_back((op, h)),
                Err(e) => out.record(Err(OpError::Failed(e))),
            }
        }
        let Some((op, h)) = pending.pop_front() else {
            break;
        };
        let o = h.wait();
        let checked = check(st, &op, &o);
        if let (Ok(digest), Ok(r)) = (&checked, &o.result) {
            led.queued.push(o.queued.as_secs_f64());
            led.ran.push(o.ran.as_secs_f64());
            led.messages += r.messages;
            led.bytes += r.network_bytes;
            if op.kind == Kind::Faulted {
                led.attempts += u64::from(r.recovery.attempts);
                led.epochs_replayed += r.recovery.epochs_replayed as u64;
                led.retransmitted += r.recovery.messages_retransmitted;
            }
            if let Kind::Durable(name) = &op.kind {
                todo.push_front(Op {
                    kind: Kind::Resume(name.clone(), *digest),
                    ..op
                });
            }
        }
        out.record(checked.map(|_| (o.queued + o.ran).as_secs_f64()));
    }
    out.wall_s = t.elapsed().as_secs_f64();
    let after = st.service.cache_stats();
    led.hits = after.hits - before.hits;
    led.misses = after.misses - before.misses;
    if let Some(l) = ledger {
        *l = led;
    }
    // Durable state is the round's own; clear it outside the timing.
    if let Ok(entries) = std::fs::read_dir(&st.durable_root) {
        for e in entries.flatten() {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
    out
}

pub fn run(args: &Args, state_dir: &Path) -> Result<Outcome, String> {
    let (st, setup_times) = harness::repeated_setup(|| setup(args, state_dir))?;
    let mut ledgers: Vec<Ledger> = Vec::new();
    let rounds = harness::measure(args, |i| {
        if harness::traced_round(args, i) {
            let mut l = Ledger::default();
            let r = round(&st, i, Some(&mut l));
            ledgers.push(l);
            r
        } else {
            round(&st, i, None)
        }
    });
    let mut notes = Vec::new();
    let metrics = if args.trace {
        let mut m = Metrics::default();
        layers(args, &st, &ledgers, &rounds, state_dir, &mut m)?;
        let realistic: Vec<Job> = st.shapes[..shapes(args.reduced).len()]
            .iter()
            .map(Shape::representative)
            .collect();
        notes = probes::resilience_cost(&realistic, state_dir)?;
        m
    } else {
        harness::end_to_end_metrics(&setup_times, &rounds)
    };
    Ok(Outcome {
        rounds,
        metrics,
        notes,
    })
}

fn layers(
    args: &Args,
    st: &State,
    ledgers: &[Ledger],
    rounds: &[Round],
    state_dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    // Exact counts from the first traced round; latencies from all.
    let first = &ledgers[0];
    m.set("supervisor.attempts", first.attempts as f64);
    m.set("supervisor.epochs_replayed", first.epochs_replayed as f64);
    m.set("fabric.retransmitted_messages", first.retransmitted as f64);
    m.set("fabric.messages", first.messages as f64);
    m.set("fabric.bytes", first.bytes as f64);
    let queued: Vec<f64> = ledgers.iter().flat_map(|l| l.queued.clone()).collect();
    let ran: Vec<f64> = ledgers.iter().flat_map(|l| l.ran.clone()).collect();
    m.set("service.queue_p50_s", median_or_nan(&queued));
    m.set("service.run_p50_s", median_or_nan(&ran));
    m.set("trace.overhead", harness::trace_overhead(rounds));

    let distinct: BTreeMap<String, &Op> = st
        .ops
        .iter()
        .map(|op| {
            (
                format!(
                    "{}-{:?}-{}-{}",
                    op.shape, op.run.approach, op.run.job.nodes, op.run.job.threads
                ),
                op,
            )
        })
        .collect();
    let inputs: Vec<CompileInput> = distinct
        .values()
        .map(|op| CompileInput::of(&op.run))
        .collect();
    probes::compile(&inputs, m);
    // The compile time comes from a fresh cache; the service's own cache
    // supplies the hit and miss counts.
    probes::progcache(&inputs, m);
    m.set("progcache.hits", first.hits as f64);
    m.set("progcache.misses", first.misses as f64);

    let realistic = shapes(args.reduced).len();
    let per_shape: Vec<Job> = st.shapes.iter().map(Shape::representative).collect();
    probes::simulate(&per_shape[..realistic]).record(m);
    probes::supervised_shares(&per_shape[..realistic], m)?;
    probes::grid(&per_shape, m);
    probes::fabric(&probes::message_sizes(&inputs), m);
    probes::snapshots(&per_shape[..realistic], state_dir, m)
}
