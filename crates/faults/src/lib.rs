//! Behavioural fault models, fault injection and parallel fault simulation
//! for spiking neural networks.
//!
//! Implements Section III of *"Minimum Time Maximum Fault Coverage Testing
//! of Spiking Neural Networks"* (DATE 2025):
//!
//! * [`FaultUniverse`] — enumeration of the behavioural fault space. The
//!   paper's campaign uses exactly **2 faults per neuron** (saturated,
//!   dead) and **3 faults per synapse** (dead, positively saturated,
//!   negatively saturated) — recoverable from its Table II, where fault
//!   totals are exactly 2× the neuron count and 3× the synapse count.
//!   Timing-variation neuron faults and memory bit-flip synapse faults are
//!   available as extensions.
//! * [`Injection`] — how a [`Fault`] is realized on a network: weight
//!   faults patch the weight tensor; neuron faults use the simulator's
//!   behavioural hooks.
//! * [`FaultSimulator`] — the detection campaign of Eq. (3)/(4), and the
//!   one campaign entry point: a fault is detected by a test input if it
//!   changes the output spike trains. It runs the [`Engine`] its config
//!   requests (resolved by [`resolve_engine`]; Auto picks packed when the
//!   network ends in a dense or recurrent layer) and fans the work out
//!   over a crossbeam thread pool. The scalar loop re-simulates one fault
//!   at a time, exploiting the feedforward structure (*prefix caching*: a
//!   fault in layer ℓ cannot alter activity before ℓ) and *early exit*
//!   (identical layer activity ⇒ identical suffix). The packed engine
//!   ([`plan`] → lane assignment → packed run) carries up to 64 fault
//!   variants as bit lanes of `u64` spike words through the network's
//!   trailing run of dense and recurrent layers, and hands every other
//!   fault to the scalar loop. Verdicts are bit-identical either way.
//! * [`chunk`] — chunk-addressable campaigns: deterministic sharding of
//!   a fault list, subset simulation by explicit fault ids, exact chunk
//!   merging and the campaign verdict digest backing `snn-cluster`'s
//!   bit-identical distributed execution.
//! * [`criticality`] — labels each fault critical (alters a top-1
//!   prediction on at least one dataset sample) or benign.
//! * [`CoverageReport`] — fault-coverage accounting in the four classes the
//!   paper reports (critical/benign × neuron/synapse), plus escape
//!   (undetected-critical) accuracy-drop analysis.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use snn_faults::{FaultSimConfig, FaultSimulator, FaultUniverse};
//! use snn_model::{LifParams, NetworkBuilder};
//! use snn_tensor::{Shape, Tensor};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new(4, LifParams::default())
//!     .dense(6)
//!     .dense(2)
//!     .build(&mut rng);
//! let universe = FaultUniverse::standard(&net);
//! assert_eq!(universe.len(), 2 * net.neuron_count() + 3 * net.synapse_count());
//!
//! let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 4), 0.5);
//! let sim = FaultSimulator::new(&net, FaultSimConfig::default());
//! let outcome = sim.detect(&universe, universe.faults(), std::slice::from_ref(&test));
//! assert_eq!(outcome.per_fault.len(), universe.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod dictionary;
mod engine;
mod estimate;
mod golden;
mod inject;
mod pack;
mod sim;
mod universe;

pub mod chunk;
pub mod criticality;
pub mod parallel;
pub mod plan;
pub mod progress;
pub mod transient;

pub use chunk::{verdict_digest, verdict_digest_hex, ChunkCampaignError, ChunkRange, MergeError};
pub use coverage::{escape_max_accuracy_drop, ClassCoverage, CoverageReport};
pub use dictionary::{Diagnosis, FaultDictionary};
pub use engine::{resolve_engine, Engine, ParseEngineError};
pub use estimate::{estimate_coverage, CoverageEstimate};
pub use inject::{bit_flip_int8, Injection, InjectionError};
pub use progress::{CancelToken, Cancelled, NullSink, Progress, ProgressSink};
pub use sim::{CampaignError, CampaignOutcome, FaultOutcome, FaultSimConfig, FaultSimulator};
pub use transient::{windowed_forward, TransientWindow};
pub use universe::{Fault, FaultKind, FaultModelConfig, FaultSite, FaultUniverse};

/// The campaign entry point under every engine: the packed engine (and
/// its scalar remainder) reproduces the scalar loop's verdicts bitwise.
#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only shorthand
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, Network, NetworkBuilder};
    use snn_tensor::{Shape, Tensor};
    use std::sync::Mutex;

    fn dense_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(10)
            .dense(4)
            .build(&mut rng)
    }

    /// A conv layer ahead of the dense suffix: conv faults take the
    /// scalar loop, dense faults pack.
    fn conv_prefix_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new_spatial(1, 6, 6, LifParams::default())
            .conv(2, 3, 1, 1)
            .dense(5)
            .build(&mut rng)
    }

    fn tests_for(net: &Network, seed: u64, count: usize) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                snn_tensor::init::bernoulli(&mut rng, Shape::d2(16, net.input_features()), 0.4)
            })
            .collect()
    }

    fn cfg(engine: Engine) -> FaultSimConfig {
        FaultSimConfig { threads: 1, engine: Some(engine), ..FaultSimConfig::default() }
    }

    fn detect_with(
        net: &Network,
        cfg: FaultSimConfig,
        universe: &FaultUniverse,
        faults: &[Fault],
        tests: &[Tensor],
        sink: &dyn ProgressSink,
        cancel: &CancelToken,
    ) -> Result<CampaignOutcome, CampaignError> {
        FaultSimulator::new(net, cfg).detect_with(universe, faults, tests, sink, cancel)
    }

    fn assert_engines_agree(net: &Network, cfg_extra: impl Fn(FaultSimConfig) -> FaultSimConfig) {
        let u = FaultUniverse::standard(net);
        let tests = tests_for(net, 7, 3);
        let run = |engine| {
            FaultSimulator::new(net, cfg_extra(cfg(engine))).detect(&u, u.faults(), &tests)
        };
        let scalar = run(Engine::Scalar);
        let packed = run(Engine::Packed);
        assert_eq!(scalar.per_fault.len(), packed.per_fault.len());
        for (s, p) in scalar.per_fault.iter().zip(packed.per_fault.iter()) {
            assert_eq!(s.fault_id, p.fault_id);
            assert_eq!(s.detected, p.detected, "fault {}", s.fault_id);
            assert_eq!(s.distance.to_bits(), p.distance.to_bits(), "fault {}", s.fault_id);
            assert_eq!(s.class_diff, p.class_diff, "fault {}", s.fault_id);
        }
        assert_eq!(verdict_digest(&scalar.per_fault), verdict_digest(&packed.per_fault));
    }

    #[test]
    fn packed_matches_scalar_on_a_dense_network() {
        assert_engines_agree(&dense_net(11), |c| c);
    }

    #[test]
    fn packed_matches_scalar_with_class_diffs_and_activity_filter() {
        assert_engines_agree(&dense_net(12), |c| FaultSimConfig {
            record_class_diffs: true,
            activity_filter: true,
            ..c
        });
    }

    #[test]
    fn packed_matches_scalar_on_a_conv_prefix_with_fallback() {
        assert_engines_agree(&conv_prefix_net(13), |c| FaultSimConfig {
            record_class_diffs: true,
            ..c
        });
    }

    #[test]
    fn auto_resolution_follows_the_last_layer() {
        let dense = dense_net(1);
        assert_eq!(resolve_engine(&dense, None), Engine::Packed);
        assert_eq!(resolve_engine(&dense, Some(Engine::Auto)), Engine::Packed);
        assert_eq!(resolve_engine(&dense, Some(Engine::Scalar)), Engine::Scalar);
        let mut rng = StdRng::seed_from_u64(2);
        let conv = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .avg_pool(2)
            .build(&mut rng);
        assert_eq!(resolve_engine(&conv, None), Engine::Scalar);
        assert_eq!(resolve_engine(&conv, Some(Engine::Packed)), Engine::Packed);
        let recurrent = NetworkBuilder::new(6, LifParams::default()).recurrent(5).build(&mut rng);
        assert_eq!(resolve_engine(&recurrent, None), Engine::Packed);
        assert_eq!(resolve_engine(&recurrent, Some(Engine::Scalar)), Engine::Scalar);
    }

    #[test]
    fn ill_formed_fault_is_a_typed_error() {
        let net = dense_net(3);
        let u = FaultUniverse::standard(&net);
        let neuron_site =
            u.faults().iter().find(|f| f.kind == FaultKind::NeuronDead).copied().unwrap();
        let bad = Fault { kind: FaultKind::SynapseDead, ..neuron_site };
        let tests = tests_for(&net, 4, 1);
        for engine in [Engine::Scalar, Engine::Packed] {
            let err =
                detect_with(&net, cfg(engine), &u, &[bad], &tests, &NullSink, &CancelToken::new())
                    .unwrap_err();
            assert!(matches!(err, CampaignError::Injection(_)), "{engine}");
        }
    }

    #[test]
    fn pre_cancelled_campaign_reports_cancelled() {
        let net = dense_net(5);
        let u = FaultUniverse::standard(&net);
        let tests = tests_for(&net, 6, 1);
        let cancel = CancelToken::new();
        cancel.cancel();
        for engine in [Engine::Scalar, Engine::Packed] {
            let err = detect_with(&net, cfg(engine), &u, u.faults(), &tests, &NullSink, &cancel)
                .unwrap_err();
            assert_eq!(err, CampaignError::Cancelled, "{engine}");
        }
    }

    /// One progress stream per campaign, also when the packed engine hands
    /// part of it (the conv-prefix net's conv faults) to the scalar loop:
    /// every event reports the whole campaign's total and the last one
    /// closes it.
    #[test]
    fn progress_stream_covers_the_whole_campaign() {
        for net in [dense_net(8), conv_prefix_net(8)] {
            let u = FaultUniverse::standard(&net);
            let tests = tests_for(&net, 9, 2);
            let events = Mutex::new(Vec::new());
            let sink = |p: Progress| events.lock().unwrap().push(p);
            let outcome = detect_with(
                &net,
                cfg(Engine::Packed),
                &u,
                u.faults(),
                &tests,
                &sink,
                &CancelToken::new(),
            )
            .unwrap();
            let events = events.into_inner().unwrap();
            for e in &events {
                let Progress::FaultsSimulated { total, .. } = e else { continue };
                assert_eq!(*total, u.len());
            }
            let last = events.iter().rev().find_map(|e| match e {
                Progress::FaultsSimulated { done, detected, .. } => Some((*done, *detected)),
                _ => None,
            });
            assert_eq!(last, Some((u.len(), outcome.detected_count())));
        }
    }
}
