//! The metric registry: every name the benchmark prints, with its unit
//! and better direction. `BENCHMARK.json` lists exactly these (a test
//! holds the two together).

use gpaw_fd::config::Approach;

/// One registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`: which way the metric improves.
    pub better: &'static str,
}

const HIGHER: &str = "higher";
const LOWER: &str = "lower";

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
    }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", LOWER),
        def("wall_s", "s", LOWER),
        def("peak_rss_mb", "MB", LOWER),
        def("gflops", "GFLOP/s", HIGHER),
        def("jobs_per_s", "1/s", HIGHER),
        def("job_p50_s", "s", LOWER),
        def("job_p90_s", "s", LOWER),
    ]
}

/// The per-approach simulator event-rate metric name.
pub fn events_per_s_of(a: Approach) -> String {
    format!("simmpi.events_per_s.{}", a.slug())
}

/// Per-layer metrics, printed by every traced run of every workload.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("program.compile_s", "s", LOWER),
        def("simmpi.run_s", "s", LOWER),
        def("simmpi.events", "count", LOWER),
        def("simmpi.events_per_s", "1/s", HIGHER),
    ];
    v.extend(
        Approach::ALL
            .iter()
            .map(|&a| def(&events_per_s_of(a), "1/s", HIGHER)),
    );
    v.extend([
        def("simmpi.messages", "count", LOWER),
        def("grid.fill_s", "s", LOWER),
        def("grid.stencil_gflops", "GFLOP/s", HIGHER),
        def("grid.halo_pack_gb_s", "GB/s", HIGHER),
        def("grid.halo_unpack_gb_s", "GB/s", HIGHER),
        def("fabric.msgs_per_s", "1/s", HIGHER),
        def("fabric.gb_s", "GB/s", HIGHER),
        def("fabric.messages", "count", LOWER),
        def("fabric.bytes", "bytes", LOWER),
        def("hybrid-rt.share.compute", "ratio", HIGHER),
        def("hybrid-rt.share.halo", "ratio", LOWER),
        def("hybrid-rt.share.comm", "ratio", LOWER),
        def("hybrid-rt.share.barrier", "ratio", LOWER),
        def("hybrid-rt.share.unattributed", "ratio", LOWER),
        def("progcache.hits", "count", HIGHER),
        def("progcache.misses", "count", LOWER),
        def("progcache.compile_s", "s", LOWER),
        def("service.queue_p50_s", "s", LOWER),
        def("service.run_p50_s", "s", LOWER),
        def("checkpoint.deposit_gb_s", "GB/s", HIGHER),
        def("integrity.digest_gb_s", "GB/s", HIGHER),
        def("integrity.crc32_gb_s", "GB/s", HIGHER),
        def("durable.spill_gb_s", "GB/s", HIGHER),
        def("durable.recover_s", "s", LOWER),
        def("supervisor.attempts", "count", LOWER),
        def("supervisor.epochs_replayed", "count", LOWER),
        def("fabric.retransmitted_messages", "count", LOWER),
        def("trace.overhead", "ratio", LOWER),
    ]);
    v
}

/// Measured values, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Record `name = value` (a later record of the same name replaces it).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Render the values of `defs`, in registry order, as the `metrics`
    /// object of the result line. A registered metric without a value is
    /// a benchmark bug.
    ///
    /// # Panics
    /// Panics when a metric of `defs` was never recorded.
    pub fn render(&self, defs: &[MetricDef]) -> String {
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .get(&d.name)
                    .unwrap_or_else(|| panic!("metric {} was never measured", d.name));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&d.name),
                    number(v),
                    quote(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal for `s` (the benchmark only writes plain ASCII
/// names, so escaping quotes and backslashes suffices).
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// keeps; non-finite values (which JSON cannot carry) become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_refuse_non_finite() {
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
    }
}
