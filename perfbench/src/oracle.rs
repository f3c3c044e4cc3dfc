//! Correctness oracles the program does not compute for itself.
//!
//! * [`naive_laplacian`] — the order-4, 13-point Laplacian written out
//!   point by point (−5/2, 4/3, −1/12 over h², periodic wrap), with none
//!   of the kernel's loop structure, halos or slabbing;
//! * [`DesCount`] — messages, bytes and flops of a simulated point in
//!   closed form: ranks × batches × 6 faces × exchanges, face areas from
//!   the decomposition;
//! * [`makespan_floor_s`] — no simulated run can beat its flops spread
//!   over every core at the PPC450's peak;
//! * [`matches_reference`] / [`reference_digest`] — a distributed result
//!   compared bit for bit with `sequential_reference`, shard by shard.

use gpaw_bgp_hw::CartMap;
use gpaw_fd::config::{Approach, FdConfig};
use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::plan::{rank_assignment, RankPlan};
use gpaw_fd::run_digest;
use gpaw_grid::decomp::Subdomain;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::gridset::GridSet;
use gpaw_grid::stencil::StencilCoeffs;

/// Stencil flops per grid point (13 multiplies, 12 adds).
pub const FLOPS_PER_POINT: f64 = 25.0;
/// Peak flop rate of one PPC450 core: 850 MHz × 4 flops per cycle.
pub const BGP_CORE_PEAK_FLOPS: f64 = 3.4e9;
/// Bytes per `f64` grid point.
const BYTES_PER_POINT: u64 = 8;

/// Grid `g` of the program's synthetic input, whole (undecomposed).
pub fn synthetic_grid(ext: [usize; 3], seed: u64, g: usize) -> Grid3<f64> {
    let whole = Subdomain { start: [0; 3], ext };
    let mut grid = Grid3::zeros(ext, StencilCoeffs::HALO);
    f64::fill(&mut grid, &whole, ext, seed, g);
    grid
}

/// `sweeps` applications of the order-4 Laplacian with spacing `h` and
/// periodic wrap, evaluated naively over the interior of `input`;
/// returns the result in row-major `[x][y][z]` order.
pub fn naive_laplacian(input: &Grid3<f64>, h: [f64; 3], sweeps: usize) -> Vec<f64> {
    let n = input.n();
    let at = |i: usize, j: usize, k: usize| (i * n[1] + j) * n[2] + k;
    let mut u = vec![0.0; n[0] * n[1] * n[2]];
    for i in 0..n[0] {
        for j in 0..n[1] {
            for k in 0..n[2] {
                u[at(i, j, k)] = input.get(i as isize, j as isize, k as isize);
            }
        }
    }
    let w = [-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0];
    let wrap = |x: usize, d: isize, len: usize| (x as isize + d).rem_euclid(len as isize) as usize;
    let mut out = vec![0.0; u.len()];
    for _ in 0..sweeps {
        for i in 0..n[0] {
            for j in 0..n[1] {
                for k in 0..n[2] {
                    let mut acc = [0.0; 3];
                    for (o, &c) in w.iter().enumerate() {
                        let d = o as isize - 2;
                        acc[0] += c * u[at(wrap(i, d, n[0]), j, k)];
                        acc[1] += c * u[at(i, wrap(j, d, n[1]), k)];
                        acc[2] += c * u[at(i, j, wrap(k, d, n[2]))];
                    }
                    out[at(i, j, k)] = (0..3).map(|a| acc[a] / (h[a] * h[a])).sum();
                }
            }
        }
        std::mem::swap(&mut u, &mut out);
    }
    u
}

/// Largest difference between `reference`'s interior and `naive`,
/// relative to the largest magnitude in `naive`.
pub fn relative_error(reference: &Grid3<f64>, naive: &[f64]) -> f64 {
    let n = reference.n();
    let scale = naive
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let mut worst = 0.0f64;
    for i in 0..n[0] {
        for j in 0..n[1] {
            for k in 0..n[2] {
                let r = reference.get(i as isize, j as isize, k as isize);
                let d = (r - naive[(i * n[1] + j) * n[2] + k]).abs();
                // NaN never compares greater: count it as a total miss.
                worst = if d.is_nan() {
                    f64::INFINITY
                } else {
                    worst.max(d)
                };
            }
        }
    }
    worst / scale
}

/// Rounding allowance of the naive evaluation against the kernel: the
/// two sum the same thirteen terms in different orders, a few ulps per
/// sweep.
pub const NAIVE_TOLERANCE: f64 = 1e-12;

/// Whether every rank's shard of a distributed result is bitwise equal
/// to the sequential reference.
pub fn matches_reference(
    sets: &[GridSet<f64>],
    map: &CartMap,
    ext: [usize; 3],
    cfg: &FdConfig,
    reference: &GridSet<f64>,
) -> bool {
    sets.len() == map.ranks()
        && sets.iter().enumerate().all(|(rank, set)| {
            let sub = RankPlan::for_rank(map, ext, rank, 8, cfg).sub;
            let asg = rank_assignment(cfg.approach, reference.len(), map, rank);
            set.len() == asg.count
                && (0..set.len()).all(|i| {
                    let (local, global) = (set.grid(i), reference.grid(asg.id(i)));
                    (0..sub.ext[0]).all(|x| {
                        (0..sub.ext[1]).all(|y| {
                            (0..sub.ext[2]).all(|z| {
                                let l = local.get(x as isize, y as isize, z as isize);
                                let g = global.get(
                                    (sub.start[0] + x) as isize,
                                    (sub.start[1] + y) as isize,
                                    (sub.start[2] + z) as isize,
                                );
                                l.to_bits() == g.to_bits()
                            })
                        })
                    })
                })
        })
}

/// The digest a distributed run must report when its result is bitwise
/// equal to `reference`: the reference cut into each rank's shard, in
/// rank and assignment order.
pub fn reference_digest(
    map: &CartMap,
    ext: [usize; 3],
    cfg: &FdConfig,
    reference: &GridSet<f64>,
) -> u64 {
    let sets: Vec<GridSet<f64>> = (0..map.ranks())
        .map(|rank| {
            let sub = RankPlan::for_rank(map, ext, rank, 8, cfg).sub;
            let asg = rank_assignment(cfg.approach, reference.len(), map, rank);
            let grids = (0..asg.count)
                .map(|i| {
                    let global = reference.grid(asg.id(i));
                    Grid3::from_fn(sub.ext, StencilCoeffs::HALO, |x, y, z| {
                        global.get(
                            (sub.start[0] + x) as isize,
                            (sub.start[1] + y) as isize,
                            (sub.start[2] + z) as isize,
                        )
                    })
                })
                .collect();
            GridSet::from_grids(grids)
        })
        .collect();
    run_digest(&sets)
}

/// Closed-form traffic and work of one simulated point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesCount {
    /// Messages posted: ranks × batches × 6 faces × exchanges.
    pub messages: u64,
    /// Payload bytes posted by one node (every node posts the same when
    /// the decomposition divides the grid evenly).
    pub bytes_per_node: u64,
    /// Stencil flops retired: points × grids × sweeps × 25.
    pub flops: u64,
}

impl DesCount {
    /// The count for `approach` at `cores` on a periodic grid of `ext`
    /// with `n_grids` grids, `batch` grids per message and one exchange
    /// per sweep. `dims` is the decomposition — the process grid for flat
    /// ranks, the node grid for hybrid ranks and for flat static groups;
    /// it must divide `ext` evenly.
    pub fn new(
        approach: Approach,
        cores: usize,
        ext: [usize; 3],
        n_grids: usize,
        batch: usize,
        sweeps: usize,
        dims: [usize; 3],
    ) -> DesCount {
        assert!(
            (0..3).all(|a| ext[a].is_multiple_of(dims[a])),
            "closed form assumes an even decomposition"
        );
        let sub = [ext[0] / dims[0], ext[1] / dims[1], ext[2] / dims[2]];
        let (ranks, ranks_per_node, grids_per_rank, streams) = match approach {
            // Virtual node mode: four single-threaded ranks per node.
            Approach::FlatOriginal | Approach::FlatOptimized => (cores, 4, n_grids, 1),
            // Node-level boxes, each of a node's four ranks owning a
            // quarter of the grids.
            Approach::FlatStatic => (cores, 4, n_grids / 4, 1),
            // One rank per node; each of four threads batches its own
            // quarter of the grids.
            Approach::HybridMultiple | Approach::TemporalBlocked => (cores / 4, 1, n_grids, 4),
            // One rank per node; the master batches all grids.
            Approach::HybridMasterOnly => (cores / 4, 1, n_grids, 1),
        };
        let batch = if approach == Approach::FlatOriginal {
            1
        } else {
            batch
        };
        let per_stream = grids_per_rank / streams;
        let batches = streams * per_stream.div_ceil(batch);
        let halo = StencilCoeffs::HALO;
        let face = |a: usize| sub[(a + 1) % 3] * sub[(a + 2) % 3];
        let face_bytes: u64 = (0..3)
            .map(|a| 2 * (face(a) * halo) as u64 * BYTES_PER_POINT)
            .sum();
        let points: u64 = ext.iter().map(|&e| e as u64).product();
        DesCount {
            messages: (ranks * batches * 6 * sweeps) as u64,
            bytes_per_node: ranks_per_node * face_bytes * grids_per_rank as u64 * sweeps as u64,
            flops: points * n_grids as u64 * sweeps as u64 * FLOPS_PER_POINT as u64,
        }
    }
}

/// Shortest simulated makespan `flops` allow on `cores` PPC450 cores.
pub fn makespan_floor_s(flops: f64, cores: usize) -> f64 {
    flops / (cores as f64 * BGP_CORE_PEAK_FLOPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_traffic_matches_a_hand_worked_case() {
        // 8 cores of Hybrid multiple: 2 nodes, one rank each, a 2×1×1
        // node grid over a 16×8×8 grid → 8×8×8 boxes. Four threads each
        // batch 4 of the 16 grids at batch 2 → 2 batches per thread, 8
        // per rank; 2 ranks × 8 batches × 6 faces × 1 exchange = 96.
        let c = DesCount::new(Approach::HybridMultiple, 8, [16, 8, 8], 16, 2, 1, [2, 1, 1]);
        assert_eq!(c.messages, 96);
        // Per grid: 6 faces × 8·8 points × 2 planes × 8 bytes = 6144 B;
        // one rank per node with all 16 grids → 98 304 B per node.
        assert_eq!(c.bytes_per_node, 6 * 64 * 2 * 8 * 16);
        assert_eq!(c.flops, 16 * 8 * 8 * 16 * 25);
        // Flat original on the same job at 8 cores: a 2×2×2 process grid
        // of 8×4×4 boxes, unbatched → 8 ranks × 16 grids × 6 = 768.
        let f = DesCount::new(Approach::FlatOriginal, 8, [16, 8, 8], 16, 2, 1, [2, 2, 2]);
        assert_eq!(f.messages, 768);
        // Per rank and grid: 2·(4·4 + 8·4 + 8·4) points × 2 planes × 8 B.
        assert_eq!(f.bytes_per_node, 4 * 2 * (16 + 32 + 32) * 2 * 8 * 16);
    }

    #[test]
    fn naive_laplacian_matches_the_analytic_second_derivative() {
        // u = sin(2πx/L) along x only: ∇²u = −(2π/L)²u up to O(h⁴).
        let n = 32;
        let h = 1.0 / n as f64;
        let k = 2.0 * std::f64::consts::PI;
        let g = Grid3::from_fn([n, 4, 4], StencilCoeffs::HALO, |i, _, _| {
            (k * i as f64 * h).sin()
        });
        let lap = naive_laplacian(&g, [h, 1.0, 1.0], 1);
        for i in 0..n {
            let exact = -k * k * (k * i as f64 * h).sin();
            assert!((lap[i * 16] - exact).abs() < 1e-3 * k * k, "point {i}");
        }
    }

    #[test]
    fn the_makespan_floor_is_flops_over_aggregate_peak() {
        assert!((makespan_floor_s(3.4e9 * 8.0, 8) - 1.0).abs() < 1e-12);
    }
}
