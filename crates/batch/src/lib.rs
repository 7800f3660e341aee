//! Bit-packed fault-parallel simulation: fault plan → lane assignment →
//! packed LIF run.
//!
//! A detection campaign asks one question per (fault, test) pair: does
//! the faulty output spike train differ from the fault-free one? The
//! scalar engine answers it by re-simulating the network once per fault.
//! This crate answers it for up to 64 faults at once: each fault variant
//! becomes a bit *lane* inside `u64` spike words, the fault-free
//! ("golden") run is simulated once per test, and lanes are carried
//! through the network as packed bit patterns — per-lane `f32` state is
//! materialized lazily, only for lanes that actually diverge from the
//! golden run, and only from their first divergent tick.
//!
//! The pipeline:
//!
//! 1. [`plan`] — partition the fault list into *packs* of ≤ 64 variants
//!    confined to the same layer of the network's packable suffix (its
//!    trailing run of dense and recurrent layers), plus a scalar-fallback
//!    remainder (faults at conv/pool sites or ahead of one);
//! 2. lane assignment — each pack member gets a bit lane, with lane 0
//!    reserved as a fault-free self-check in non-full packs;
//! 3. packed run — per pack, per test: simulate each lane's single
//!    perturbed neuron scalar-wise (to its first spike divergence, at a
//!    recurrent layer, whose feedback then spreads it over the layer),
//!    materialize the diverged lanes' layers, pack divergent rows into
//!    spike words, and sweep the remaining layers lane-parallel.
//!
//! [`engine_detect`] is the drop-in campaign entry point: it resolves
//! the configured [`Engine`], runs packs (and the scalar fallback for
//! unpackable faults) and returns a [`CampaignOutcome`] **bit-identical**
//! to [`FaultSimulator::detect_with`] — same per-fault detection flags,
//! distances, class diffs and therefore the same
//! [`verdict_digest`](snn_faults::verdict_digest). Cluster chunking,
//! collapsed-universe expansion and reliability campaigns ride on top
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod golden;
mod pack;
pub mod plan;

use std::sync::atomic::{AtomicUsize, Ordering};

use snn_faults::{
    parallel, ActivitySummary, CampaignError, CampaignOutcome, CancelToken, Engine, Fault,
    FaultOutcome, FaultSimConfig, FaultSimulator, FaultUniverse, Injection, InjectionError,
    Progress, ProgressSink,
};
use snn_model::{Layer, LifParams, Network, RecordOptions, Trace};
use snn_obs::clock::monotonic;
use snn_obs::phase::LocalPhases;
use snn_tensor::Tensor;

use golden::{golden_suffix, GoldenLayer};

pub use plan::{packed_suffix_start, FaultPlan, Pack};

/// A layer of the packable suffix, viewed uniformly: a dense layer is a
/// recurrent layer without feedback.
pub(crate) struct SuffixLayer<'a> {
    /// Feed-forward weights (`W` or `W_in`), `[n × in]`.
    pub w_in: &'a Tensor,
    /// Feedback weights `W_rec`, `[n × n]`; `None` for a dense layer.
    pub w_rec: Option<&'a Tensor>,
    /// Neuron parameters shared by the layer.
    pub lif: &'a LifParams,
}

/// The dense or recurrent layer at `idx`.
pub(crate) fn suffix_layer(net: &Network, idx: usize) -> SuffixLayer<'_> {
    match &net.layers()[idx] {
        Layer::Dense(l) => SuffixLayer { w_in: &l.weight, w_rec: None, lif: &l.lif },
        Layer::Recurrent(l) => SuffixLayer { w_in: &l.w_in, w_rec: Some(&l.w_rec), lif: &l.lif },
        // The planner only packs faults in the packable suffix, so every
        // layer the packed kernel addresses is dense or recurrent by
        // construction.
        _ => unreachable!("packed engine addressed non-packable layer {idx}"),
    }
}

/// Resolves a requested engine against the network: [`Engine::Auto`]
/// (and `None`) picks [`Engine::Packed`] when the network ends in a
/// dense or recurrent layer — the planner can then pack at least the
/// last layer's faults — and [`Engine::Scalar`] otherwise. Never returns
/// `Auto`.
pub fn resolve_engine(net: &Network, requested: Option<Engine>) -> Engine {
    match requested.unwrap_or(Engine::Auto) {
        Engine::Auto => {
            if net.layers().last().is_some_and(plan::packable) {
                Engine::Packed
            } else {
                Engine::Scalar
            }
        }
        explicit => explicit,
    }
}

/// Runs a detection campaign under the engine configured in
/// `cfg.engine` (resolved via [`resolve_engine`]). The outcome is
/// bit-identical to [`FaultSimulator::detect_with`] whichever engine
/// runs — the packed path is an execution strategy, not a semantics
/// change.
///
/// # Panics
///
/// Panics if `tests` is empty (matching the scalar engine).
///
/// # Errors
///
/// [`CampaignError::Injection`] for an ill-formed fault (before any
/// simulation), [`CampaignError::Cancelled`] once `cancel` trips.
pub fn engine_detect(
    net: &Network,
    cfg: FaultSimConfig,
    universe: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
    sink: &dyn ProgressSink,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    match resolve_engine(net, cfg.engine) {
        Engine::Scalar => {
            let cfg = FaultSimConfig { engine: Some(Engine::Scalar), ..cfg };
            FaultSimulator::new(net, cfg).detect_with(universe, faults, tests, sink, cancel)
        }
        _ => packed_detect(net, cfg, universe, faults, tests, sink, cancel),
    }
}

/// Remaps the scalar fallback's progress stream onto the full campaign:
/// the subset simulator reports `total = subset.len()`, but downstream
/// consumers see one campaign over `total` faults.
struct ProgressScale<'a> {
    inner: &'a dyn ProgressSink,
    total: usize,
}

impl ProgressSink for ProgressScale<'_> {
    fn emit(&self, event: Progress) {
        let event = match event {
            Progress::FaultsSimulated { done, detected, .. } => {
                Progress::FaultsSimulated { done, total: self.total, detected }
            }
            other => other,
        };
        self.inner.emit(event);
    }
}

fn as_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// The packed campaign: plan → scalar fallback (if any) → golden
/// precompute → lane-parallel pack fan-out. Observable behaviour
/// (spans, counters, progress stream shape, error order) mirrors the
/// scalar `detect_with`.
#[allow(clippy::too_many_arguments)] // mirrors detect_with's signature plus the network
fn packed_detect(
    net: &Network,
    cfg: FaultSimConfig,
    universe: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
    sink: &dyn ProgressSink,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    assert!(!tests.is_empty(), "detection campaign needs at least one test input");
    let mut campaign_span = snn_obs::span!("faultsim.campaign");
    campaign_span.attr("faults", faults.len());
    let start = monotonic();

    // Campaign-level phase scratch: planning, lane assignment and the
    // golden replays land here and merge into the process accumulator at
    // the end (inside this campaign's snapshot delta, outside the
    // fallback's — the fallback campaign emits its own phase spans).
    let mut campaign_local = LocalPhases::new();
    let plan = {
        let mut plan_span = snn_obs::span!("batch.plan");
        let plan = plan::plan(net, faults, &mut campaign_local);
        plan_span.attr("packs", plan.packs.len());
        plan_span.attr("fallback", plan.fallback.len());
        plan
    };

    // Realize every fault up front so ill-formed ones are rejected
    // before any simulation work starts (typed, like the scalar path).
    let injections: Vec<Injection> = faults
        .iter()
        .map(|f| Injection::for_fault(net, universe, f))
        .collect::<Result<_, InjectionError>>()?;

    let mut per_fault: Vec<Option<FaultOutcome>> = Vec::new();
    per_fault.resize_with(faults.len(), || None);

    // Scalar fallback first: it merges its own phase delta into the
    // process accumulator, so running it before this campaign's
    // phases_before snapshot keeps the packed delta clean.
    let mut fallback_detected = 0usize;
    if !plan.fallback.is_empty() {
        snn_obs::counter!(
            "snn_batch_scalar_fallback_faults_total",
            "Faults the packed engine handed to the scalar fallback."
        )
        .add(as_u64(plan.fallback.len()));
        let subset: Vec<Fault> = plan.fallback.iter().map(|&i| faults[i]).collect();
        let scale = ProgressScale { inner: sink, total: faults.len() };
        let sub_cfg = FaultSimConfig { engine: Some(Engine::Scalar), ..cfg };
        let outcome = FaultSimulator::new(net, sub_cfg)
            .detect_with(universe, &subset, tests, &scale, cancel)?;
        fallback_detected = outcome.detected_count();
        for (&fi, o) in plan.fallback.iter().zip(outcome.per_fault) {
            per_fault[fi] = Some(o);
        }
    }

    let phases = snn_obs::phase::faultsim();
    let phases_before = phases.snapshot();

    // Golden precompute: baselines, activity summaries and the per-test
    // golden suffix trajectories every pack reads from.
    let mut baselines: Vec<Trace> = Vec::new();
    let mut activity: Vec<ActivitySummary> = Vec::new();
    let mut golden: Vec<Vec<GoldenLayer>> = Vec::new();
    if !plan.packs.is_empty() {
        let baseline_span = snn_obs::span!("faultsim.baseline");
        baselines = tests.iter().map(|t| net.forward(t, RecordOptions::spikes_only())).collect();
        if cfg.activity_filter {
            activity = tests
                .iter()
                .zip(baselines.iter())
                .map(|(t, b)| ActivitySummary::new(net, t, b))
                .collect();
        }
        for (test, baseline) in tests.iter().zip(baselines.iter()) {
            golden.push(golden_suffix(net, test, baseline, plan.suffix_start, &mut campaign_local));
        }
        drop(baseline_span);
    }

    let done = AtomicUsize::new(plan.fallback.len());
    let detected_total = AtomicUsize::new(fallback_detected);
    let ctx = pack::Ctx {
        net,
        cfg,
        faults,
        injections: &injections,
        tests,
        baselines: &baselines,
        activity: &activity,
        golden: &golden,
        suffix_start: plan.suffix_start,
    };
    let pack_outcomes = parallel::try_map_indexed(
        plan.packs.len(),
        cfg.threads,
        cancel,
        || (),
        |_, pi| {
            let pk = &plan.packs[pi];
            let outcomes = pack::run_pack(&ctx, pk);
            let det = outcomes.iter().filter(|o| o.detected).count();
            let detected = detected_total.fetch_add(det, Ordering::Relaxed) + det;
            let done_now = done.fetch_add(pk.members.len(), Ordering::Relaxed) + pk.members.len();
            sink.emit(Progress::FaultsSimulated { done: done_now, total: faults.len(), detected });
            outcomes
        },
    )?;
    for (pk, outcomes) in plan.packs.iter().zip(pack_outcomes) {
        for (&fi, o) in pk.members.iter().zip(outcomes) {
            per_fault[fi] = Some(o);
        }
    }
    let per_fault: Vec<FaultOutcome> = per_fault
        .into_iter()
        // snn-lint: allow(L-PANIC): the plan assigns every fault index to a pack or the fallback exactly once
        .map(|o| o.expect("every fault assigned to a pack or the fallback"))
        .collect();

    phases.merge(&campaign_local);
    let elapsed = monotonic().saturating_sub(start);
    if let Some(parent) = campaign_span.id() {
        let delta = phases.snapshot().delta_since(&phases_before);
        snn_obs::phase::emit_spans(&delta, Some(parent));
    }
    campaign_span.attr("detected", detected_total.load(Ordering::Relaxed));
    Ok(CampaignOutcome { per_fault, elapsed })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only shorthand
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_faults::{verdict_digest, FaultKind, NullSink};
    use snn_model::{LifParams, NetworkBuilder};
    use snn_tensor::Shape;
    use std::sync::Mutex;

    fn dense_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(10)
            .dense(4)
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

    fn scalar_cfg() -> FaultSimConfig {
        FaultSimConfig { threads: 1, engine: Some(Engine::Scalar), ..FaultSimConfig::default() }
    }

    fn packed_cfg() -> FaultSimConfig {
        FaultSimConfig { threads: 1, engine: Some(Engine::Packed), ..FaultSimConfig::default() }
    }

    fn assert_engines_agree(net: &Network, cfg_extra: impl Fn(FaultSimConfig) -> FaultSimConfig) {
        let u = FaultUniverse::standard(net);
        let tests = tests_for(net, 7, 3);
        let cancel = CancelToken::new();
        let scalar =
            engine_detect(net, cfg_extra(scalar_cfg()), &u, u.faults(), &tests, &NullSink, &cancel)
                .unwrap();
        let packed =
            engine_detect(net, cfg_extra(packed_cfg()), &u, u.faults(), &tests, &NullSink, &cancel)
                .unwrap();
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
        // Conv faults take the scalar fallback; packable-suffix faults pack.
        let mut rng = StdRng::seed_from_u64(13);
        let net = NetworkBuilder::new_spatial(1, 6, 6, LifParams::default())
            .conv(2, 3, 1, 1)
            .dense(5)
            .build(&mut rng);
        assert_engines_agree(&net, |c| FaultSimConfig { record_class_diffs: true, ..c });
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
        let err =
            engine_detect(&net, packed_cfg(), &u, &[bad], &tests, &NullSink, &CancelToken::new())
                .unwrap_err();
        assert!(matches!(err, CampaignError::Injection(_)));
    }

    #[test]
    fn pre_cancelled_campaign_reports_cancelled() {
        let net = dense_net(5);
        let u = FaultUniverse::standard(&net);
        let tests = tests_for(&net, 6, 1);
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = engine_detect(&net, packed_cfg(), &u, u.faults(), &tests, &NullSink, &cancel)
            .unwrap_err();
        assert!(matches!(err, CampaignError::Cancelled));
    }

    #[test]
    fn progress_stream_covers_the_whole_campaign() {
        let net = dense_net(8);
        let u = FaultUniverse::standard(&net);
        let tests = tests_for(&net, 9, 2);
        let events = Mutex::new(Vec::new());
        let sink = |p: Progress| events.lock().unwrap().push(p);
        let outcome =
            engine_detect(&net, packed_cfg(), &u, u.faults(), &tests, &sink, &CancelToken::new())
                .unwrap();
        let events = events.into_inner().unwrap();
        let final_detected = events
            .iter()
            .filter_map(|e| match e {
                Progress::FaultsSimulated { done, total, detected } => {
                    assert_eq!(*total, u.len());
                    (*done == u.len()).then_some(*detected)
                }
                _ => None,
            })
            .next_back();
        assert_eq!(final_detected, Some(outcome.detected_count()));
    }
}
