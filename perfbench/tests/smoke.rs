//! Runs every workload at a tiny size, untraced and traced, and checks
//! the outputs against the contract in `BENCHMARK.json`.

use perfbench::report::Metric;
use perfbench::run::{run, Options};
use perfbench::workload::{Size, Workload};

/// Metric names listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(|v| v.as_seq(key).ok())
        .expect("metric list present")
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str("name").ok()).expect("named").to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options { workload, seed: 3, seconds: 0.05, trace, size: Size::tiny() }
}

#[test]
fn every_workload_runs_correctly_and_reports_every_end_to_end_metric() {
    let listed: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads"), listed, "BENCHMARK.json lists every workload, in order");
    for workload in Workload::ALL {
        let out = run(&tiny(workload, false));
        assert!(out.tally.ok(), "{}: {:?}", workload.name(), out.tally.failures);
        assert!(out.tally.attempted > 0);
        assert_eq!(names(&out.metrics), declared("end_to_end"), "{}", workload.name());
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", workload.name());
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let out = run(&tiny(Workload::CampaignDense, true));
    assert!(out.tally.ok(), "{:?}", out.tally.failures);
    assert_eq!(names(&out.metrics), declared("per_layer"));
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn reruns_at_one_seed_reproduce_their_outputs() {
    // Two runs of a workload at one seed must give the same deterministic
    // figures: test length, activation and coverage.
    let pick = |metrics: &[Metric]| -> Vec<f64> {
        metrics
            .iter()
            .filter(|m| ["test_ticks", "activation", "fault_coverage"].contains(&m.name.as_str()))
            .map(|m| m.value)
            .collect()
    };
    let a = run(&tiny(Workload::CampaignFallback, false));
    let b = run(&tiny(Workload::CampaignFallback, false));
    assert_eq!(pick(&a.metrics), pick(&b.metrics));
}
