//! Per-layer probes: each times calls into one layer's public functions
//! from outside, on inputs sized from the workload's own jobs. The
//! program is not instrumented; these are the benchmark's own spans
//! around the calls.

use crate::metrics::Metrics;
use crate::oracle::synthetic_grid;
use crate::stats::median;
use gpaw_bgp_hw::spec::CostModel;
use gpaw_bgp_hw::{CartMap, Partition};
use gpaw_fd::checkpoint::CheckpointStore;
use gpaw_fd::config::{Approach, FdConfig};
use gpaw_fd::durable::{DurableStore, SnapshotRecord};
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::integrity::{crc32, grids_digest};
use gpaw_fd::plan::RankPlan;
use gpaw_fd::progcache::ProgramCache;
use gpaw_fd::program::compile_rank;
use gpaw_fd::timed::{run_timed, ScopeSel, TimedJob};
use gpaw_grid::grid3::Grid3;
use gpaw_grid::halo::{pack_batch, unpack_batch, Side};
use gpaw_grid::stencil::{self, StencilCoeffs};
use gpaw_hybrid_rt::{
    strategy_for, supervise, FaultPlan, JobService, NativeFabric, NativeJob, Priority, RetryPolicy,
    ServiceConfig, ServiceOutcome,
};
use gpaw_simmpi::RunReport;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// A native job of the workload, with the approach it runs under.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub approach: Approach,
    pub job: NativeJob,
}

impl Job {
    /// The job's partition map.
    pub fn map(&self) -> CartMap {
        let partition = Partition::standard(self.job.nodes, self.approach.exec_mode())
            .expect("probe jobs use standard node counts");
        CartMap::best(partition, self.job.grid_ext)
    }

    /// The engine configuration the job runs with.
    pub fn config(&self) -> FdConfig {
        self.job.config(self.approach)
    }

    /// Rank 0's input grids, as the runtime allocates and fills them.
    fn rank0_grids(&self) -> Vec<Grid3<f64>> {
        let (map, cfg) = (self.map(), self.config());
        let sub = RankPlan::for_rank(&map, self.job.grid_ext, 0, 8, &cfg).sub;
        (0..self.job.n_grids)
            .map(|g| {
                let mut grid = Grid3::zeros(sub.ext, cfg.halo_depth());
                f64::fill(&mut grid, &sub, self.job.grid_ext, self.job.seed, g);
                grid
            })
            .collect()
    }
}

/// One compile input: what `compile_rank` and the program cache key on.
pub struct CompileInput {
    pub cfg: FdConfig,
    pub map: CartMap,
    pub ext: [usize; 3],
    pub n_grids: usize,
    pub threads: usize,
    /// Ranks whose programs are built (all of them, or the simulator's
    /// instantiated set).
    pub ranks: Vec<usize>,
}

impl CompileInput {
    /// The compile input of a native job.
    pub fn of(p: &Job) -> CompileInput {
        let map = p.map();
        let threads = match p.approach {
            Approach::HybridMultiple | Approach::HybridMasterOnly | Approach::TemporalBlocked => {
                p.job.threads
            }
            _ => 1,
        };
        CompileInput {
            cfg: p.config(),
            ranks: (0..map.ranks()).collect(),
            map,
            ext: p.job.grid_ext,
            n_grids: p.job.n_grids,
            threads,
        }
    }
}

/// `program.compile_s`: time inside `compile_rank` for every rank of
/// every input.
pub fn compile(inputs: &[CompileInput], m: &mut Metrics) {
    let mut spent = 0.0;
    for c in inputs {
        for &rank in &c.ranks {
            let plan = RankPlan::for_rank(&c.map, c.ext, rank, 8, &c.cfg);
            let t = Instant::now();
            black_box(compile_rank(&c.cfg, &c.map, &plan, c.n_grids, c.threads));
            spent += t.elapsed().as_secs_f64();
        }
    }
    m.set("program.compile_s", spent);
}

/// Distinct rank-0 face-message sizes of every input, batch included.
pub fn message_sizes(inputs: &[CompileInput]) -> Vec<u64> {
    let mut sizes: Vec<u64> = inputs
        .iter()
        .flat_map(|c| {
            let plan = RankPlan::for_rank(&c.map, c.ext, 0, 8, &c.cfg);
            gpaw_bgp_hw::Axis::ALL.map(|axis| plan.msg_bytes(axis, c.cfg.effective_batch()))
        })
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// `progcache.*` through a fresh cache: one pass that compiles, one that
/// hits. Workloads that use the cache themselves override the counts.
pub fn progcache(inputs: &[CompileInput], m: &mut Metrics) {
    let cache = ProgramCache::new(inputs.len().max(1));
    let t = Instant::now();
    for pass in 0..2 {
        for c in inputs {
            black_box(cache.get_or_compile(&c.cfg, &c.map, c.ext, c.n_grids, c.threads, 8));
        }
        if pass == 0 {
            m.set("progcache.compile_s", t.elapsed().as_secs_f64());
        }
    }
    let stats = cache.stats();
    m.set("progcache.hits", stats.hits as f64);
    m.set("progcache.misses", stats.misses as f64);
}

/// `grid.*`: allocation plus fill of every job's global grids, then the
/// kernel and the halo packers on rank 0's subdomain of each job.
pub fn grid(jobs: &[Job], m: &mut Metrics) {
    let t = Instant::now();
    for p in jobs {
        for g in 0..p.job.n_grids {
            black_box(synthetic_grid(p.job.grid_ext, p.job.seed, g));
        }
    }
    m.set("grid.fill_s", t.elapsed().as_secs_f64());

    let coef = StencilCoeffs::laplacian(jobs[0].job.spacing);
    let (mut points, mut kernel_s) = (0.0, 0.0);
    let (mut bytes, mut pack_s, mut unpack_s) = (0.0, 0.0, 0.0);
    for p in jobs {
        let mut grids = p.rank0_grids();
        let mut out = Grid3::zeros(grids[0].n(), grids[0].halo());
        // Repeat each kernel until it has covered ~4 M points.
        let reps = (4_000_000 / grids[0].interior_points()).max(1);
        let t = Instant::now();
        for r in 0..reps {
            stencil::apply(&coef, black_box(&grids[r % grids.len()]), &mut out);
        }
        kernel_s += t.elapsed().as_secs_f64();
        points += (reps * grids[0].interior_points()) as f64;

        let ids: Vec<usize> = (0..p.job.batch.min(grids.len())).collect();
        let mut buf = Vec::new();
        for _ in 0..4 {
            for axis in 0..3 {
                for side in Side::BOTH {
                    buf.clear();
                    let t = Instant::now();
                    pack_batch(&grids, &ids, axis, side, &mut buf);
                    pack_s += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    unpack_batch(&mut grids, &ids, axis, side.opposite(), &buf);
                    unpack_s += t.elapsed().as_secs_f64();
                    bytes += (buf.len() * 8) as f64;
                }
            }
        }
    }
    m.set("grid.stencil_gflops", points * 25.0 / kernel_s / 1e9);
    m.set("grid.halo_pack_gb_s", bytes / pack_s / 1e9);
    m.set("grid.halo_unpack_gb_s", bytes / unpack_s / 1e9);
}

/// `fabric.msgs_per_s` / `fabric.gb_s`: rank 0 → rank 1 send/recv pairs
/// on a two-node fabric, ~32 MB per message size, one buffer bounced.
/// Returns the exact message and byte counts the probe moved.
pub fn fabric(msg_bytes: &[u64], m: &mut Metrics) -> (u64, u64) {
    let map = CartMap::best(
        Partition::standard(2, Approach::HybridMultiple.exec_mode()).expect("two nodes"),
        [16, 16, 16],
    );
    let fab: NativeFabric<f64> = NativeFabric::new(&map);
    let (mut msgs, mut bytes, mut spent) = (0u64, 0u64, 0.0);
    for (tag, &size) in msg_bytes.iter().enumerate() {
        let words = (size / 8).max(1) as usize;
        let pairs = (32_000_000 / (words * 8)).clamp(16, 20_000);
        let mut payload = vec![1.0f64; words];
        let t = Instant::now();
        for _ in 0..pairs {
            fab.send(0, 1, tag as u64, payload);
            payload = fab
                .recv(1, 0, tag as u64)
                .expect("a sent message is already waiting");
        }
        spent += t.elapsed().as_secs_f64();
        msgs += pairs as u64;
        bytes += (pairs * words * 8) as u64;
    }
    m.set("fabric.msgs_per_s", msgs as f64 / spent);
    m.set("fabric.gb_s", bytes as f64 / spent / 1e9);
    (msgs, bytes)
}

/// `checkpoint.*`, `integrity.*` and `durable.*` on rank 0's grids of
/// every job: deposit (clone plus digest), digest, CRC32, spill and
/// recover, under `dir`.
pub fn snapshots(jobs: &[Job], dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let (mut bytes, mut deposit_s, mut digest_s, mut crc_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut spill_s, mut recover_s) = (0.0, 0.0);
    for (i, p) in jobs.iter().enumerate() {
        let grids = p.rank0_grids();
        let size: f64 = grids.iter().map(|g| (g.data().len() * 8) as f64).sum();
        bytes += size;

        let store: CheckpointStore<f64> = CheckpointStore::new([(0, 0)]);
        let t = Instant::now();
        store.deposit(0, 0, 1, grids.clone());
        deposit_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(grids_digest(black_box(&grids)));
        digest_s += t.elapsed().as_secs_f64();

        let image: Vec<u8> = grids
            .iter()
            .flat_map(|g| g.data().iter().flat_map(|v| v.to_le_bytes()))
            .collect();
        let t = Instant::now();
        black_box(crc32(black_box(&image)));
        crc_s += t.elapsed().as_secs_f64();
        drop(image);

        let sub = dir.join(format!("probe-{i}"));
        let io = |e: gpaw_fd::DurableError| format!("durable probe under {}: {e}", sub.display());
        let disk = DurableStore::create(&sub).map_err(io)?;
        let record = SnapshotRecord {
            rank: 0,
            slot: 0,
            grids,
        };
        let t = Instant::now();
        disk.spill_epoch(1, std::slice::from_ref(&record))
            .map_err(io)?;
        spill_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = disk.recover::<f64>().map_err(io)?;
        recover_s += t.elapsed().as_secs_f64();
        if back.epoch != 1 || grids_digest(&back.records[0].grids) != grids_digest(&record.grids) {
            return Err("durable probe recovered different grids".into());
        }
        std::fs::remove_dir_all(&sub).map_err(|e| format!("{}: {e}", sub.display()))?;
    }
    m.set("checkpoint.deposit_gb_s", bytes / deposit_s / 1e9);
    m.set("integrity.digest_gb_s", bytes / digest_s / 1e9);
    m.set("integrity.crc32_gb_s", bytes / crc_s / 1e9);
    m.set("durable.spill_gb_s", bytes / spill_s / 1e9);
    m.set("durable.recover_s", recover_s);
    Ok(())
}

/// `service.*` through a one-worker service: each job submitted twice,
/// two outstanding at a time.
pub fn service(jobs: &[Job], m: &mut Metrics) {
    let svc: JobService<f64> = JobService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let stream: Vec<&Job> = jobs.iter().chain(jobs.iter()).collect();
    let mut outcomes: Vec<ServiceOutcome<f64>> = Vec::new();
    let mut pending = std::collections::VecDeque::new();
    for p in stream {
        let h = svc
            .submit("probe", Priority::Normal, p.approach, p.job)
            .expect("probe jobs are admissible");
        pending.push_back(h);
        if pending.len() == 2 {
            outcomes.push(pending.pop_front().expect("two pending").wait());
        }
    }
    outcomes.extend(pending.into_iter().map(|h| h.wait()));
    svc.join();
    let queued: Vec<f64> = outcomes.iter().map(|o| o.queued.as_secs_f64()).collect();
    let ran: Vec<f64> = outcomes.iter().map(|o| o.ran.as_secs_f64()).collect();
    m.set("service.queue_p50_s", median(&queued));
    m.set("service.run_p50_s", median(&ran));
}

/// `supervisor.*` and `fabric.retransmitted_messages`: `p` on two nodes
/// with one thread each, rank 0 panicking at its first send, supervised
/// to completion.
pub fn faults(p: &Job, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let job = NativeJob {
        nodes: 2,
        threads: 1,
        ..p.job
    }
    .with_recv_timeout_ms(250)
    .with_fault(FaultPlan::quiet(seed).with_panic_on_send(0, 0));
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2),
    };
    let sup = supervise::<f64>(&job, strategy_for::<f64>(p.approach).as_ref(), &policy)
        .map_err(|e| format!("supervised probe failed: {e}"))?;
    m.set("supervisor.attempts", f64::from(sup.recovery.attempts));
    m.set(
        "supervisor.epochs_replayed",
        sup.recovery.epochs_replayed as f64,
    );
    m.set(
        "fabric.retransmitted_messages",
        sup.recovery.messages_retransmitted as f64,
    );
    Ok(())
}

/// Simulator totals over a set of timed runs.
#[derive(Debug, Default, Clone)]
pub struct SimLedger {
    pub run_s: f64,
    pub events: u64,
    pub messages: u64,
    /// Per approach: (events, seconds in `run_timed`).
    pub by_approach: Vec<(Approach, u64, f64)>,
}

impl SimLedger {
    /// Account one `run_timed` call.
    pub fn add(&mut self, a: Approach, report: &RunReport, seconds: f64) {
        self.run_s += seconds;
        self.events += report.events;
        self.messages += report.messages;
        match self.by_approach.iter_mut().find(|(x, _, _)| *x == a) {
            Some(slot) => {
                slot.1 += report.events;
                slot.2 += seconds;
            }
            None => self.by_approach.push((a, report.events, seconds)),
        }
    }

    /// Write the `simmpi.*` metrics.
    pub fn record(&self, m: &mut Metrics) {
        m.set("simmpi.run_s", self.run_s);
        m.set("simmpi.events", self.events as f64);
        m.set("simmpi.events_per_s", self.events as f64 / self.run_s);
        m.set("simmpi.messages", self.messages as f64);
        for &(a, events, secs) in &self.by_approach {
            m.set(&crate::metrics::events_per_s_of(a), events as f64 / secs);
        }
    }
}

/// The workload's realistic job shapes on the simulator: every approach
/// at 8 cores (two nodes), as the timed plane would run them.
pub fn simulate(jobs: &[Job]) -> SimLedger {
    let model = CostModel::bgp();
    let mut ledger = SimLedger::default();
    for &a in &Approach::ALL {
        for p in jobs {
            let job = TimedJob {
                cores: 8,
                grid_ext: p.job.grid_ext,
                n_grids: p.job.n_grids,
                bytes_per_point: 8,
                config: FdConfig::paper(a)
                    .with_batch(p.job.batch)
                    .with_sweeps(p.job.sweeps),
            };
            let t = Instant::now();
            let report = run_timed(&job, &model, ScopeSel::Full);
            ledger.add(a, &report, t.elapsed().as_secs_f64());
        }
    }
    ledger
}

/// `hybrid-rt.share.*` of supervised runs — the path every service job
/// takes, which returns no span ledger through the service itself.
pub fn supervised_shares(jobs: &[Job], m: &mut Metrics) -> Result<(), String> {
    let mut reports = Vec::new();
    for p in jobs {
        let sup = supervise::<f64>(
            &p.job,
            strategy_for::<f64>(p.approach).as_ref(),
            &RetryPolicy::default(),
        )
        .map_err(|e| format!("supervised probe failed: {e}"))?;
        reports.push(sup.run.report);
    }
    let refs: Vec<&RunReport> = reports.iter().collect();
    crate::harness::span_shares(&refs, m);
    Ok(())
}

/// The resilience tax per shape: seconds of one unsupervised, one
/// supervised and one durable (spilling every epoch) run of each job,
/// as `key=value` notes for the diagnostics line.
pub fn resilience_cost(jobs: &[Job], dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut notes = Vec::new();
    for (i, p) in jobs.iter().enumerate() {
        let strategy = strategy_for::<f64>(p.approach);
        let err = |e: gpaw_hybrid_rt::RunError| format!("resilience probe: {e}");
        let t = Instant::now();
        gpaw_hybrid_rt::run_native::<f64>(&p.job, strategy.as_ref()).map_err(err)?;
        let plain = t.elapsed().as_secs_f64();
        let t = Instant::now();
        supervise::<f64>(&p.job, strategy.as_ref(), &RetryPolicy::default()).map_err(err)?;
        let supervised = t.elapsed().as_secs_f64();
        let spill_dir = dir.join(format!("tax-{i}"));
        let t = Instant::now();
        gpaw_hybrid_rt::supervise_durable::<f64>(
            &p.job,
            strategy.as_ref(),
            &RetryPolicy::default(),
            &gpaw_hybrid_rt::DurabilityConfig::new(&spill_dir),
        )
        .map_err(err)?;
        let durable = t.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&spill_dir).map_err(|e| format!("{}: {e}", spill_dir.display()))?;
        let e = p.job.grid_ext;
        let key = format!("tax.{}x{}x{}x{}", e[0], e[1], e[2], p.job.n_grids);
        notes.push((
            key,
            format!("plain:{plain:.3}s,supervised:{supervised:.3}s,durable:{durable:.3}s"),
        ));
    }
    Ok(notes)
}
