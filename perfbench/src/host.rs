//! Host noise and calibration, recorded beside every run's metrics.
//!
//! A shared 2-vCPU VM drifts: CPU steal comes and goes, and multi-threaded
//! timings move with it. Each run therefore records the host's CPU count,
//! the steal share over the run (from `/proc/stat`, read-only), its peak
//! resident memory, and an in-process calibration — copy bandwidth and
//! the single-thread stencil rate on a fixed grid — so a reader can tell
//! a slower program from a slower host.

use gpaw_grid::grid3::Grid3;
use gpaw_grid::stencil::{self, StencilCoeffs};
use std::hint::black_box;
use std::time::Instant;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the counters; `None` where `/proc/stat` is unavailable.
    pub fn read() -> Option<CpuTimes> {
        let text = std::fs::read_to_string("/proc/stat").ok()?;
        parse_cpu_line(text.lines().next()?)
    }

    /// Share of CPU time stolen by the hypervisor between `self` and a
    /// later sample.
    pub fn steal_share_until(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

fn parse_cpu_line(line: &str) -> Option<CpuTimes> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so it is not summed again.
    let v: Vec<u64> = fields.take(8).filter_map(|f| f.parse().ok()).collect();
    if v.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        total: v.iter().sum(),
        steal: v[7],
    })
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Copy bandwidth in GB/s (bytes read plus bytes written), median of
/// five copies of a 64 MiB buffer — larger than any last-level cache this
/// benchmark runs on.
pub fn copy_gb_s() -> f64 {
    const WORDS: usize = 8 << 20;
    let src: Vec<u64> = (0..WORDS as u64).collect();
    let mut dst = vec![0u64; WORDS];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        rates.push(2.0 * (WORDS * 8) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&rates)
}

/// Single-thread `stencil::apply` rate in GFLOP/s on a fixed 64³ grid
/// (25 flops per point), median of seven applications.
pub fn stencil_gflops() -> f64 {
    let coef = StencilCoeffs::laplacian([0.2, 0.25, 0.3]);
    let input = Grid3::<f64>::from_fn([64, 64, 64], StencilCoeffs::HALO, |i, j, k| {
        ((i * 7 + j * 3 + k) % 17) as f64
    });
    let mut out = Grid3::<f64>::zeros([64, 64, 64], StencilCoeffs::HALO);
    let mut rates = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        stencil::apply(&coef, black_box(&input), &mut out);
        black_box(&mut out);
        rates.push(64.0f64.powi(3) * 25.0 / t.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_the_steal_delta_over_the_total_delta() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 0 40 0 0").expect("cpu line");
        let b = parse_cpu_line("cpu  150 0 60 870 10 0 0 50 0 0").expect("cpu line");
        assert!((a.steal_share_until(&b) - 10.0 / 140.0).abs() < 1e-12);
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
    }
}
