//! Scalar fault-simulation campaign throughput, with the two accelerations
//! ablated: prefix caching (re-simulate only from the faulty layer) and
//! early exit (stop when a layer's activity matches the baseline).
//!
//! Together with `losses`, this backs the paper's `O(M·T_FS)` vs
//! `O(M + T_FS)` argument with measured per-fault costs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_bench::{build_dataset, build_network, BenchmarkKind, Scale};
use snn_faults::{Engine, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_tensor::Shape;
use std::hint::black_box;

fn bench_faultsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("faultsim");
    group.sample_size(10);
    let kind = BenchmarkKind::Nmnist;
    let mut rng = StdRng::seed_from_u64(4);
    let net = build_network(kind, Scale::Repro, &mut rng);
    let ds = build_dataset(kind, Scale::Repro, 4);
    let universe = FaultUniverse::standard(&net);
    // A 400-fault random sample keeps each iteration sub-second.
    let faults = universe.sample(&mut rng, 400);
    let test =
        snn_tensor::init::bernoulli(&mut rng, Shape::d2(ds.steps(), net.input_features()), 0.15);
    let tests = std::slice::from_ref(&test);

    let configs = [
        ("baseline_full_resim", false, false, false),
        ("prefix_cache", true, false, false),
        ("early_exit", false, true, false),
        ("prefix_cache+early_exit", true, true, false),
        ("all+activity_filter", true, true, true),
    ];
    for (name, prefix, early, filter) in configs {
        let sim = FaultSimulator::new(
            &net,
            FaultSimConfig {
                threads: 1,
                prefix_cache: prefix,
                early_exit: early,
                activity_filter: filter,
                record_class_diffs: false,
                // The variants measure the scalar loop's own knobs.
                engine: Some(Engine::Scalar),
            },
        );
        group.bench_function(format!("400_faults/{name}"), |b| {
            b.iter(|| black_box(sim.detect(&universe, black_box(&faults), tests)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_faultsim);
criterion_main!(benches);
