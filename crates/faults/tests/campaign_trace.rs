//! The one campaign entry point, seen through its trace: a default-config
//! `FaultSimulator::detect` runs the packed engine (it plans packs) with
//! the scalar loop's verdicts, an explicit scalar request plans nothing,
//! and a mixed campaign — packs plus a scalar remainder — computes its
//! baselines once.
//!
//! Every test installs the process-global span collector, so they
//! serialize on the collector's test lock.

#![allow(clippy::unwrap_used)] // test-only shorthand

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_faults::{
    verdict_digest, CampaignOutcome, Engine, FaultSimConfig, FaultSimulator, FaultUniverse,
};
use snn_model::{LifParams, Network, NetworkBuilder};
use snn_obs::trace::{self, Collector};
use snn_obs::SpanRecord;
use snn_tensor::{Shape, Tensor};

fn dense_net() -> Network {
    let mut rng = StdRng::seed_from_u64(21);
    NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
        .dense(10)
        .dense(4)
        .build(&mut rng)
}

fn stimulus(net: &Network, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..2)
        .map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(16, net.input_features()), 0.4))
        .collect()
}

/// Runs a full-universe campaign under `cfg` with a collector installed,
/// returning the outcome and the spans it recorded.
fn traced(net: &Network, cfg: FaultSimConfig) -> (CampaignOutcome, Vec<SpanRecord>) {
    let _serial = trace::global_test_lock();
    let u = FaultUniverse::standard(net);
    let tests = stimulus(net, 22);
    let collector = Arc::new(Collector::new());
    trace::install(Arc::clone(&collector));
    let outcome = FaultSimulator::new(net, cfg).detect(&u, u.faults(), &tests);
    trace::uninstall();
    (outcome, collector.finished())
}

fn count(spans: &[SpanRecord], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn default_config_runs_the_packed_engine_with_scalar_verdicts() {
    let net = dense_net();
    let (auto, auto_spans) = traced(&net, FaultSimConfig::default());
    let scalar_cfg = FaultSimConfig { engine: Some(Engine::Scalar), ..FaultSimConfig::default() };
    let (scalar, scalar_spans) = traced(&net, scalar_cfg);

    assert_eq!(count(&auto_spans, "batch.plan"), 1, "Auto plans packs on a dense net");
    assert!(count(&auto_spans, "batch.pack") > 0);
    assert_eq!(count(&scalar_spans, "batch.plan"), 0, "an explicit scalar request plans nothing");
    assert_eq!(count(&scalar_spans, "batch.pack"), 0);
    assert_eq!(verdict_digest(&auto.per_fault), verdict_digest(&scalar.per_fault));
}

#[test]
fn mixed_campaign_computes_its_baselines_once() {
    // A conv layer ahead of the dense readout: conv faults run on the
    // scalar loop, dense faults pack.
    let mut rng = StdRng::seed_from_u64(23);
    let net = NetworkBuilder::new_spatial(1, 6, 6, LifParams::default())
        .conv(2, 3, 1, 1)
        .dense(5)
        .build(&mut rng);
    let (_, spans) = traced(&net, FaultSimConfig::default());

    assert!(count(&spans, "batch.pack") > 0, "dense faults pack");
    assert_eq!(count(&spans, "faultsim.baseline"), 1);
    // The scalar remainder keeps a campaign span of its own, nested in
    // the campaign's.
    let campaigns: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.name == "faultsim.campaign").collect();
    assert_eq!(campaigns.len(), 2);
    let root = campaigns.iter().find(|s| s.parent.is_none()).unwrap();
    assert!(campaigns.iter().any(|s| s.parent == Some(root.id)));
}
