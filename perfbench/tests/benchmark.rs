//! The benchmark's own promises: the metric names it prints are the ones
//! `BENCHMARK.json` declares, and a reduced run of every workload — plain
//! and traced — finishes in a few seconds with every output correct.

use gpaw_perfbench::harness::WorkloadName;
mod json;

use gpaw_perfbench::metrics::{end_to_end, per_layer, MetricDef};
use json::{parse, Value};
use std::process::Command;
use std::time::{Duration, Instant};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String, String)> {
    manifest()
        .get(section)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn registered(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.clone(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_registered_metrics() {
    assert_eq!(declared("end_to_end"), registered(&end_to_end()));
    assert_eq!(declared("per_layer"), registered(&per_layer()));
    let workloads: Vec<String> = manifest()
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    let ours: Vec<String> = WorkloadName::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);
    for m in manifest().get("end_to_end").expect("end_to_end").items() {
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .expect("every bound is a number");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} outside (0, 0.25]"
        );
    }
}

/// Run the benchmark binary in reduced mode; returns the parsed result
/// line and the elapsed time.
fn run_reduced(workload: WorkloadName, trace: bool) -> (Value, Duration) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(workload.name());
    std::fs::create_dir_all(&dir).expect("a working directory for the run");
    let t = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_gpaw-perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--reduced"])
        .current_dir(&dir)
        .output()
        .expect("the benchmark binary runs");
    let elapsed = t.elapsed();
    assert!(
        out.status.success(),
        "{}: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    (parse(last).expect("the result line is JSON"), elapsed)
}

fn check_run(workload: WorkloadName, trace: bool) {
    let (result, elapsed) = run_reduced(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{}",
        workload.name()
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let printed: Vec<String> = match result.get("metrics") {
        Some(Value::Obj(m)) => m.keys().cloned().collect(),
        _ => panic!("no metrics object"),
    };
    let mut want: Vec<String> = if trace { per_layer() } else { end_to_end() }
        .into_iter()
        .map(|d| d.name)
        .collect();
    want.sort();
    assert_eq!(printed, want, "{} trace={trace}", workload.name());
    assert!(
        elapsed < Duration::from_secs(30),
        "{} trace={trace} took {elapsed:?}",
        workload.name()
    );
}

#[test]
fn reduced_des_fullscope_runs_and_prints_every_metric() {
    check_run(WorkloadName::DesFullscope, false);
    check_run(WorkloadName::DesFullscope, true);
}

#[test]
fn reduced_native_realistic_runs_and_prints_every_metric() {
    check_run(WorkloadName::NativeRealistic, false);
    check_run(WorkloadName::NativeRealistic, true);
}

#[test]
fn reduced_service_resilient_runs_and_prints_every_metric() {
    check_run(WorkloadName::ServiceResilient, false);
    check_run(WorkloadName::ServiceResilient, true);
}

#[test]
fn bad_arguments_exit_two_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_gpaw-perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
