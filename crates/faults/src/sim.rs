use crate::engine::{resolve_engine, Engine};
use crate::golden::{golden_suffix, GoldenLayer};
use crate::inject::InjectionError;
use crate::plan::{self, FaultPlan};
use crate::progress::{CancelToken, Cancelled, NullSink, Progress, ProgressSink};
use crate::{pack, parallel, Fault, FaultKind, FaultSite, FaultUniverse, Injection};
use serde::{Deserialize, Serialize};
use snn_model::{Layer, Network, NeuronFaultMap, RecordOptions, Trace};
use snn_obs::phase::{LocalPhases, Phase};
use snn_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Configuration of a fault-simulation campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSimConfig {
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Re-simulate only from the faulty layer onward, reusing the cached
    /// fault-free activity of earlier layers. Sound for the feedforward
    /// (and layer-local recurrent) networks this workspace builds.
    pub prefix_cache: bool,
    /// Stop re-simulation as soon as a layer's faulty activity matches the
    /// fault-free baseline (the remaining suffix is then provably
    /// identical).
    pub early_exit: bool,
    /// Skip simulation entirely for faults that provably cannot change
    /// any activity under a given test input: weight faults whose source
    /// neuron/input never spikes (the synapse carries no traffic, so its
    /// value is unobservable), and dead faults on neurons that never fire
    /// anyway. Sound for all fault kinds in the standard universe.
    pub activity_filter: bool,
    /// Record the per-class output spike-count difference of each detected
    /// fault (needed to regenerate the paper's Fig. 9; costs memory).
    pub record_class_diffs: bool,
    /// Requested execution engine (`None` = [`Engine::Auto`]).
    /// [`FaultSimulator::detect_with`] resolves it with [`resolve_engine`]
    /// and runs that engine; job and campaign wire types carry it
    /// unchanged. `prefix_cache` and `early_exit` shape only the scalar
    /// loop.
    pub engine: Option<Engine>,
}

impl Default for FaultSimConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            prefix_cache: true,
            early_exit: true,
            activity_filter: true,
            record_class_diffs: false,
            engine: None,
        }
    }
}

/// Detection outcome for one fault, aggregated over all test inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// Id of the fault in its universe.
    pub fault_id: usize,
    /// `true` if any test input changed the output spike trains (Eq. 3).
    pub detected: bool,
    /// Largest L1 output-spike-train distance over the test inputs.
    pub distance: f32,
    /// Signed per-class spike-count difference (faulty − fault-free) of
    /// the test input realizing `distance`, when recording was requested.
    pub class_diff: Option<Vec<f32>>,
}

/// Result of a detection campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Per-fault outcomes, in the order the faults were supplied.
    pub per_fault: Vec<FaultOutcome>,
    /// Wall-clock duration of the campaign.
    pub elapsed: Duration,
}

impl CampaignOutcome {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.per_fault.iter().filter(|o| o.detected).count()
    }

    /// Fault coverage over the supplied fault list (Eq. 4).
    pub fn fault_coverage(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 0.0;
        }
        self.detected_count() as f64 / self.per_fault.len() as f64
    }
}

/// Error from a [`FaultSimulator::detect_with`] campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignError {
    /// The cancel token tripped before the campaign finished.
    Cancelled,
    /// A supplied fault was ill-formed (site/kind mismatch).
    Injection(InjectionError),
}

impl From<Cancelled> for CampaignError {
    fn from(_: Cancelled) -> Self {
        Self::Cancelled
    }
}

impl From<InjectionError> for CampaignError {
    fn from(e: InjectionError) -> Self {
        Self::Injection(e)
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Cancelled => f.write_str("fault campaign cancelled"),
            Self::Injection(e) => write!(f, "ill-formed fault: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Injection(e) => Some(e),
            Self::Cancelled => None,
        }
    }
}

/// Bumps the campaign-wide simulated-faults counter. The one registration
/// site for this metric: the scalar loop and the packed kernel both route
/// through here so the kind/help text can never diverge between engines.
pub(crate) fn record_faults_simulated(n: u64) {
    snn_obs::counter!("snn_faultsim_faults_simulated_total", "Faults simulated across campaigns.")
        .add(n);
}

/// Bumps the campaign-wide detected-faults counter (single registration
/// site, shared by both engines — see [`record_faults_simulated`]).
pub(crate) fn record_faults_detected(n: u64) {
    snn_obs::counter!("snn_faultsim_faults_detected_total", "Faults detected across campaigns.")
        .add(n);
}

/// Parallel fault simulator over a fixed fault-free network: the one
/// campaign driver, running the scalar loop, the packed engine or both
/// (see [`detect_with`](Self::detect_with)).
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct FaultSimulator<'a> {
    net: &'a Network,
    cfg: FaultSimConfig,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a simulator for `net`.
    pub fn new(net: &'a Network, cfg: FaultSimConfig) -> Self {
        Self { net, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FaultSimConfig {
        &self.cfg
    }

    /// Runs the detection campaign of Eq. (3): each fault is applied in
    /// turn and simulated against every test input until one detects it.
    ///
    /// `universe` supplies the fault magnitudes; `faults` may be the whole
    /// universe or any subset (e.g. a statistical sample); `tests` are
    /// `[T × input_features]` spike tensors.
    ///
    /// # Panics
    ///
    /// Panics if `tests` is empty or a fault's site/kind disagree (use
    /// [`detect_with`](Self::detect_with) to surface the latter as a typed
    /// [`CampaignError`] instead).
    pub fn detect(
        &self,
        universe: &FaultUniverse,
        faults: &[Fault],
        tests: &[Tensor],
    ) -> CampaignOutcome {
        self.detect_with(universe, faults, tests, &NullSink, &CancelToken::new())
            // snn-lint: allow(L-PANIC): documented panicking wrapper — detect_with is the fallible API
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`detect`](Self::detect) with progress streaming and cooperative
    /// cancellation: emits a [`Progress::FaultsSimulated`] tally as faults
    /// finish (one event per fault on the scalar loop, one per pack on the
    /// packed engine) and polls `cancel` between them, returning
    /// [`CampaignError::Cancelled`] once it trips. Ill-formed faults are
    /// reported as [`CampaignError::Injection`] before any simulation runs.
    ///
    /// The campaign runs under the engine [`FaultSimConfig::engine`]
    /// requests, resolved by [`resolve_engine`]. Under the packed engine
    /// the faults it cannot pack run on the scalar loop first (under a
    /// nested `faultsim.campaign` span), then the packs. Verdicts are
    /// bit-identical whichever engine runs.
    ///
    /// # Panics
    ///
    /// Panics if `tests` is empty.
    pub fn detect_with(
        &self,
        universe: &FaultUniverse,
        faults: &[Fault],
        tests: &[Tensor],
        sink: &dyn ProgressSink,
        cancel: &CancelToken,
    ) -> Result<CampaignOutcome, CampaignError> {
        assert!(!tests.is_empty(), "detection campaign needs at least one test input");
        // Wall-clock is reporting telemetry only — it never influences
        // detection results. Reads go through the snn-obs clock.
        let mut campaign_span = snn_obs::span!("faultsim.campaign");
        campaign_span.attr("faults", faults.len());
        let start = snn_obs::clock::monotonic();
        // Kernel-phase accounting: the per-fault loop and the packs record
        // into the process-wide accumulator; the campaign publishes its
        // delta as synthetic `phase.*` spans when tracing is on. (The
        // accumulator is shared, so campaigns running concurrently in one
        // process blend into each other's delta — dedicated worker
        // processes and single-campaign CLI runs, the cases that ship
        // traces, run one campaign at a time.)
        let phases = snn_obs::phase::faultsim();
        let phases_before = phases.snapshot();
        let cfg = self.cfg;
        let net = self.net;
        // Realize every fault up front so ill-formed ones are rejected
        // before any simulation work starts.
        let injections: Vec<Injection> = faults
            .iter()
            .map(|f| Injection::for_fault(net, universe, f))
            .collect::<Result<_, InjectionError>>()?;

        // Campaign-level phase scratch: planning, lane assignment and the
        // golden replays.
        let mut campaign_local = LocalPhases::new();
        let packed = resolve_engine(net, cfg.engine) == Engine::Packed;
        let plan = if packed {
            let mut plan_span = snn_obs::span!("batch.plan");
            let plan = plan::plan(net, faults, &mut campaign_local);
            plan_span.attr("packs", plan.packs.len());
            plan_span.attr("fallback", plan.fallback.len());
            plan
        } else {
            FaultPlan::scalar(faults.len())
        };

        let baseline_span = snn_obs::span!("faultsim.baseline");
        let baselines: Vec<Trace> =
            tests.iter().map(|t| net.forward(t, RecordOptions::spikes_only())).collect();
        let baseline_counts: Vec<Vec<f32>> = baselines.iter().map(|b| b.class_counts()).collect();
        let activity: Vec<ActivitySummary> = if cfg.activity_filter {
            tests.iter().zip(&baselines).map(|(t, b)| ActivitySummary::new(net, t, b)).collect()
        } else {
            Vec::new()
        };
        // The per-test golden suffix trajectories every pack reads from.
        let golden: Vec<Vec<GoldenLayer>> = if plan.packs.is_empty() {
            Vec::new()
        } else {
            tests
                .iter()
                .zip(&baselines)
                .map(|(t, b)| golden_suffix(net, t, b, plan.suffix_start, &mut campaign_local))
                .collect()
        };
        drop(baseline_span);

        let done = AtomicUsize::new(0);
        let detected_total = AtomicUsize::new(0);
        let mut per_fault: Vec<Option<FaultOutcome>> = Vec::new();
        per_fault.resize_with(faults.len(), || None);

        if !plan.fallback.is_empty() {
            // The packed engine's scalar remainder keeps a campaign span of
            // its own, so traces can tell its time from the packs'.
            let remainder_span = packed.then(|| {
                snn_obs::counter!(
                    "snn_batch_scalar_fallback_faults_total",
                    "Faults the packed engine handed to the scalar fallback."
                )
                .add(as_u64(plan.fallback.len()));
                let mut span = snn_obs::span!("faultsim.campaign");
                span.attr("faults", plan.fallback.len());
                span
            });
            let outcomes = parallel::try_map_indexed(
                plan.fallback.len(),
                cfg.threads,
                cancel,
                || net.clone(),
                |worker, j| {
                    let fault_started = snn_obs::clock::monotonic();
                    let mut local = LocalPhases::new();
                    let fault = &faults[plan.fallback[j]];
                    let injection = &injections[plan.fallback[j]];
                    let mut detected = false;
                    let mut best_distance = 0.0f32;
                    let mut best_diff: Option<Vec<f32>> = None;
                    for (k, (input, baseline)) in tests.iter().zip(baselines.iter()).enumerate() {
                        if cfg.activity_filter && provably_undetectable(net, &activity[k], fault) {
                            continue;
                        }
                        let out =
                            faulty_output(worker, baseline, input, injection, cfg, &mut local);
                        let Some(output) = out else { continue };
                        let compare_started = snn_obs::clock::monotonic();
                        let distance = (&output - baseline.output()).l1_norm();
                        if distance > 0.0 {
                            detected = true;
                            if distance > best_distance {
                                best_distance = distance;
                                if cfg.record_class_diffs {
                                    let counts = output.column_sums();
                                    let bc = &baseline_counts[k];
                                    best_diff = Some(
                                        counts.iter().zip(bc.iter()).map(|(f, b)| f - b).collect(),
                                    );
                                }
                            }
                        }
                        local.add(
                            Phase::Compare,
                            snn_obs::clock::monotonic().saturating_sub(compare_started),
                        );
                    }
                    if detected {
                        detected_total.fetch_add(1, Ordering::Relaxed);
                        record_faults_detected(1);
                    }
                    record_faults_simulated(1);
                    let fault_elapsed = snn_obs::clock::monotonic().saturating_sub(fault_started);
                    local.add(Phase::Fault, fault_elapsed);
                    snn_obs::histogram!(
                        "snn_faultsim_fault_seconds",
                        "Per-fault simulation time.",
                        snn_obs::metrics::FINE_DURATION_BUCKETS
                    )
                    .observe_duration(fault_elapsed);
                    snn_obs::histogram!(
                        "snn_faultsim_phase_inject_seconds",
                        "Per-fault time applying and restoring the fault patch.",
                        snn_obs::metrics::FINE_DURATION_BUCKETS
                    )
                    .observe_duration(local.total(Phase::Inject));
                    snn_obs::histogram!(
                        "snn_faultsim_phase_forward_seconds",
                        "Per-fault forward-simulation time summed over layers.",
                        snn_obs::metrics::FINE_DURATION_BUCKETS
                    )
                    .observe_duration(local.forward_total());
                    snn_obs::histogram!(
                        "snn_faultsim_phase_compare_seconds",
                        "Per-fault baseline-comparison and verdict time.",
                        snn_obs::metrics::FINE_DURATION_BUCKETS
                    )
                    .observe_duration(local.total(Phase::Compare));
                    phases.merge(&local);
                    sink.emit(Progress::FaultsSimulated {
                        done: done.fetch_add(1, Ordering::Relaxed) + 1,
                        total: faults.len(),
                        detected: detected_total.load(Ordering::Relaxed),
                    });
                    FaultOutcome {
                        fault_id: fault.id,
                        detected,
                        distance: best_distance,
                        class_diff: best_diff,
                    }
                },
            )?;
            drop(remainder_span);
            for (&fi, o) in plan.fallback.iter().zip(outcomes) {
                per_fault[fi] = Some(o);
            }
        }

        if !plan.packs.is_empty() {
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
            let outcomes = parallel::try_map_indexed(
                plan.packs.len(),
                cfg.threads,
                cancel,
                || (),
                |_, pi| {
                    let pk = &plan.packs[pi];
                    let outcomes = pack::run_pack(&ctx, pk);
                    let det = outcomes.iter().filter(|o| o.detected).count();
                    let detected = detected_total.fetch_add(det, Ordering::Relaxed) + det;
                    let members = pk.members.len();
                    let done_now = done.fetch_add(members, Ordering::Relaxed) + members;
                    sink.emit(Progress::FaultsSimulated {
                        done: done_now,
                        total: faults.len(),
                        detected,
                    });
                    outcomes
                },
            )?;
            for (pk, outcomes) in plan.packs.iter().zip(outcomes) {
                for (&fi, o) in pk.members.iter().zip(outcomes) {
                    per_fault[fi] = Some(o);
                }
            }
        }
        let per_fault: Vec<FaultOutcome> = per_fault
            .into_iter()
            // snn-lint: allow(L-PANIC): the plan assigns every fault index to a pack or the scalar set exactly once
            .map(|o| o.expect("every fault assigned to a pack or the scalar set"))
            .collect();

        phases.merge(&campaign_local);
        let elapsed = snn_obs::clock::monotonic().saturating_sub(start);
        if let Some(parent) = campaign_span.id() {
            let delta = phases.snapshot().delta_since(&phases_before);
            snn_obs::phase::emit_spans(&delta, Some(parent));
        }
        campaign_span.attr("detected", detected_total.load(Ordering::Relaxed));
        Ok(CampaignOutcome { per_fault, elapsed })
    }
}

/// Saturating `usize → u64` for metric increments.
pub(crate) fn as_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Per-test-input activity summary backing the activity filter: spike
/// totals of every layer's input features and of every layer's own
/// output neurons under the fault-free baseline. The scalar loop and the
/// packed kernel apply the same filter from it.
pub(crate) struct ActivitySummary {
    input_counts: Vec<Vec<f32>>,
    output_counts: Vec<Vec<f32>>,
}

impl ActivitySummary {
    /// Summarizes `input` and its fault-free `baseline` trace on `net`.
    pub(crate) fn new(net: &Network, input: &Tensor, baseline: &Trace) -> Self {
        let mut input_counts = Vec::with_capacity(net.layers().len());
        let mut output_counts = Vec::with_capacity(net.layers().len());
        for (idx, _) in net.layers().iter().enumerate() {
            let src: &Tensor = if idx == 0 { input } else { &baseline.layers[idx - 1].output };
            input_counts.push(src.column_sums());
            output_counts.push(baseline.layers[idx].spike_counts());
        }
        Self { input_counts, output_counts }
    }
}

/// `true` when the fault provably cannot alter any activity under the
/// summarized test input:
///
/// * any synapse-value fault whose source feature never spikes — the
///   synapse carries zero traffic, so its weight is unobservable;
/// * a dead fault on a neuron that never fires anyway.
///
/// Saturated and timing neuron faults are never filtered (they can create
/// activity out of silence). Both engines share this decision — the
/// filter is part of the verdict-equivalence contract, not an engine
/// detail.
pub(crate) fn provably_undetectable(net: &Network, acts: &ActivitySummary, fault: &Fault) -> bool {
    match (fault.site, fault.kind) {
        (FaultSite::Neuron { layer, index }, FaultKind::NeuronDead) => {
            // snn-lint: allow(L-FLOATEQ): spike counts sum exact 0.0/1.0 values, so zero activity is exact
            acts.output_counts[layer][index] == 0.0
        }
        (
            FaultSite::Synapse(r),
            FaultKind::SynapseDead
            | FaultKind::SynapseSatPos
            | FaultKind::SynapseSatNeg
            | FaultKind::SynapseBitFlip { .. },
        ) => match &net.layers()[r.layer] {
            Layer::Dense(l) => {
                let cols = l.weight.shape().dim(1);
                // snn-lint: allow(L-FLOATEQ): spike counts sum exact 0.0/1.0 values, so zero activity is exact
                acts.input_counts[r.layer][r.offset % cols] == 0.0
            }
            Layer::Conv(l) => {
                let k = l.spec.kernel;
                let ic = (r.offset / (k * k)) % l.spec.in_channels;
                let (h, w) = l.in_hw;
                let channel = &acts.input_counts[r.layer][ic * h * w..(ic + 1) * h * w];
                // snn-lint: allow(L-FLOATEQ): spike counts sum exact 0.0/1.0 values, so zero activity is exact
                channel.iter().all(|&c| c == 0.0)
            }
            Layer::Recurrent(l) => {
                if r.tensor == 0 {
                    let cols = l.w_in.shape().dim(1);
                    // snn-lint: allow(L-FLOATEQ): spike counts sum exact 0.0/1.0 values, so zero activity is exact
                    acts.input_counts[r.layer][r.offset % cols] == 0.0
                } else {
                    let units = l.w_rec.shape().dim(1);
                    // snn-lint: allow(L-FLOATEQ): spike counts sum exact 0.0/1.0 values, so zero activity is exact
                    acts.output_counts[r.layer][r.offset % units] == 0.0
                }
            }
            Layer::Pool(_) => false,
        },
        _ => false,
    }
}

/// Simulates `injection` against one test input, returning the faulty
/// final-layer spike trains, or `None` when early exit proved the output
/// identical to the baseline.
///
/// `worker` is a scratch clone of the fault-free network that weight
/// injections may patch (always restored before returning). `local`
/// accrues the kernel-phase time of this simulation: patch apply/restore
/// under `inject`, each `forward_layer` under its layer's `forward`
/// slot, early-exit baseline checks under `compare`.
pub(crate) fn faulty_output(
    worker: &mut Network,
    baseline: &Trace,
    input: &Tensor,
    injection: &Injection,
    cfg: FaultSimConfig,
    local: &mut LocalPhases,
) -> Option<Tensor> {
    use snn_obs::clock::monotonic;

    let num_layers = worker.layers().len();
    let start = if cfg.prefix_cache { injection.start_layer() } else { 0 };

    // Apply the weight patch (neuron faults ride on the override map).
    let inject_started = monotonic();
    let (fault_map, restore) = match injection {
        Injection::Weight { at, value } => {
            let old = worker.set_weight(*at, *value);
            (NeuronFaultMap::new(), Some((*at, old)))
        }
        Injection::Neuron(map) => (map.clone(), None),
    };
    local.add(Phase::Inject, monotonic().saturating_sub(inject_started));

    let mut current: Option<Tensor> = None;
    let mut identical = false;
    for idx in start..num_layers {
        let stage_input: &Tensor = match &current {
            Some(t) => t,
            None => {
                if idx == 0 {
                    input
                } else {
                    &baseline.layers[idx - 1].output
                }
            }
        };
        let forward_started = monotonic();
        let lt = worker.forward_layer(idx, stage_input, RecordOptions::spikes_only(), &fault_map);
        let compare_started = monotonic();
        local.add_forward(idx, compare_started.saturating_sub(forward_started));
        let exit = cfg.early_exit && lt.output == baseline.layers[idx].output;
        local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
        if exit {
            identical = true;
            break;
        }
        current = Some(lt.output);
    }

    if let Some((at, old)) = restore {
        let restore_started = monotonic();
        worker.set_weight(at, old);
        local.add(Phase::Inject, monotonic().saturating_sub(restore_started));
    }

    if identical {
        None
    } else {
        Some(current.unwrap_or_else(|| baseline.output().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultSite};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};
    use snn_tensor::Shape;

    fn setup() -> (Network, FaultUniverse, Tensor) {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(10)
            .dense(4)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 6), 0.5);
        (net, u, test)
    }

    #[test]
    fn saturated_output_neuron_is_always_detected() {
        let (net, u, test) = setup();
        // Output-layer saturated neuron changes O^L by construction
        // (unless it already fires every tick, which it does not here).
        let fault = u
            .faults()
            .iter()
            .find(|f| {
                f.kind == FaultKind::NeuronSaturated
                    && matches!(f.site, FaultSite::Neuron { layer: 1, .. })
            })
            .unwrap();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let out = sim.detect(&u, std::slice::from_ref(fault), std::slice::from_ref(&test));
        assert!(out.per_fault[0].detected);
        assert!(out.per_fault[0].distance > 0.0);
    }

    /// The scalar loop's knobs: prefix caching and early exit change
    /// how much is re-simulated, not the verdicts.
    #[test]
    fn prefix_cache_and_full_simulation_agree() {
        let (net, u, test) = setup();
        let faults = u.faults();
        let fast = FaultSimulator::new(
            &net,
            FaultSimConfig {
                threads: 2,
                engine: Some(Engine::Scalar),
                ..FaultSimConfig::default()
            },
        )
        .detect(&u, faults, std::slice::from_ref(&test));
        let slow = FaultSimulator::new(
            &net,
            FaultSimConfig {
                threads: 1,
                prefix_cache: false,
                early_exit: false,
                activity_filter: false,
                record_class_diffs: false,
                engine: Some(Engine::Scalar),
            },
        )
        .detect(&u, faults, std::slice::from_ref(&test));
        for (a, b) in fast.per_fault.iter().zip(slow.per_fault.iter()) {
            assert_eq!(a.detected, b.detected, "fault {}", a.fault_id);
            assert!((a.distance - b.distance).abs() < 1e-4, "fault {}", a.fault_id);
        }
    }

    /// The activity filter is an optimization, not an approximation: a
    /// sparse stimulus (many silent inputs) yields identical verdicts
    /// with the filter on and off, under either engine.
    #[test]
    fn activity_filter_is_exact() {
        let (net, u, _) = setup();
        let mut rng = StdRng::seed_from_u64(77);
        // Very sparse input: most columns silent ⇒ the filter fires often.
        let sparse = snn_tensor::init::bernoulli(&mut rng, Shape::d2(25, 6), 0.08);
        for engine in [Engine::Scalar, Engine::Packed] {
            let run = |activity_filter| {
                let cfg = FaultSimConfig {
                    threads: 1,
                    activity_filter,
                    engine: Some(engine),
                    ..FaultSimConfig::default()
                };
                FaultSimulator::new(&net, cfg).detect(&u, u.faults(), std::slice::from_ref(&sparse))
            };
            let (with, without) = (run(true), run(false));
            for (a, b) in with.per_fault.iter().zip(without.per_fault.iter()) {
                assert_eq!(a.detected, b.detected, "{engine} fault {}", a.fault_id);
            }
        }
    }

    #[test]
    fn zero_input_detects_saturated_but_not_dead() {
        let (net, u, _) = setup();
        let zero = Tensor::zeros(Shape::d2(20, 6));
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let out = sim.detect(&u, u.faults(), std::slice::from_ref(&zero));
        for (f, o) in u.faults().iter().zip(out.per_fault.iter()) {
            match f.kind {
                // With zero input nothing fires, so a dead neuron or dead
                // synapse is invisible…
                FaultKind::NeuronDead | FaultKind::SynapseDead => {
                    assert!(!o.detected, "fault {} should escape on zero input", f.id)
                }
                // …but saturated neurons self-activate. In the output
                // layer that directly corrupts O^L; a hidden saturated
                // neuron may still be masked by weak outgoing synapses.
                FaultKind::NeuronSaturated => {
                    if matches!(f.site, FaultSite::Neuron { layer: 1, .. }) {
                        assert!(o.detected, "fault {} should be caught on zero input", f.id)
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn multiple_inputs_only_improve_coverage() {
        let (net, u, test) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let test2 = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 6), 0.3);
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let one = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        let two = sim.detect(&u, u.faults(), &[test.clone(), test2]);
        assert!(two.detected_count() >= one.detected_count());
        for (a, b) in one.per_fault.iter().zip(two.per_fault.iter()) {
            if a.detected {
                assert!(b.detected, "adding inputs must not lose detections");
            }
        }
    }

    #[test]
    fn class_diff_recording_matches_distance() {
        let (net, u, test) = setup();
        let sim = FaultSimulator::new(
            &net,
            FaultSimConfig { record_class_diffs: true, ..FaultSimConfig::default() },
        );
        let out = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        for o in &out.per_fault {
            if o.detected {
                let diff = o.class_diff.as_ref().expect("recorded for detected faults");
                assert_eq!(diff.len(), net.output_features());
                // |Σ per-class count diff| cannot exceed the L1 spike-train
                // distance.
                let total: f32 = diff.iter().map(|d| d.abs()).sum();
                assert!(total <= o.distance + 1e-4);
            } else {
                assert!(o.class_diff.is_none());
            }
        }
    }

    #[test]
    #[allow(clippy::float_cmp)] // asserting the exact 0.0 sentinel
    fn empty_campaign_coverage_is_zero_not_nan() {
        let out = CampaignOutcome { per_fault: Vec::new(), elapsed: Duration::ZERO };
        assert_eq!(out.fault_coverage(), 0.0);
        assert_eq!(out.detected_count(), 0);
    }

    #[test]
    fn coverage_accounting() {
        let (net, u, test) = setup();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let out = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        let fc = out.fault_coverage();
        assert!((0.0..=1.0).contains(&fc));
        assert_eq!(out.detected_count(), out.per_fault.iter().filter(|o| o.detected).count());
    }

    #[test]
    fn detect_with_streams_progress_and_matches_detect() {
        let (net, u, test) = setup();
        // The scalar loop reports once per fault.
        let sim = FaultSimulator::new(
            &net,
            FaultSimConfig {
                threads: 2,
                engine: Some(Engine::Scalar),
                ..FaultSimConfig::default()
            },
        );
        let events = parking_lot::Mutex::new(Vec::new());
        let sink = |e: Progress| events.lock().push(e);
        let streamed = sim
            .detect_with(&u, u.faults(), std::slice::from_ref(&test), &sink, &CancelToken::new())
            .unwrap();
        let plain = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        assert_eq!(streamed.per_fault, plain.per_fault);

        let events = events.into_inner();
        assert_eq!(events.len(), u.len(), "one event per simulated fault");
        let last_detected = events
            .iter()
            .filter_map(|e| match e {
                Progress::FaultsSimulated { done, total, detected } => {
                    assert_eq!(*total, u.len());
                    (*done == u.len()).then_some(*detected)
                }
                _ => None,
            })
            .next()
            .expect("final tally event present");
        assert_eq!(last_detected, plain.detected_count());
    }

    #[test]
    fn detect_with_honours_cancellation() {
        let (net, u, test) = setup();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = sim.detect_with(&u, u.faults(), std::slice::from_ref(&test), &NullSink, &cancel);
        assert_eq!(out.unwrap_err(), CampaignError::Cancelled);
    }

    #[test]
    fn detect_with_rejects_ill_formed_faults_before_simulating() {
        let (net, u, test) = setup();
        let bad = Fault {
            id: 0,
            site: FaultSite::Neuron { layer: 0, index: 0 },
            kind: FaultKind::SynapseDead,
        };
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let out = sim.detect_with(
            &u,
            &[bad],
            std::slice::from_ref(&test),
            &NullSink,
            &CancelToken::new(),
        );
        assert!(matches!(out, Err(CampaignError::Injection(_))));
    }

    #[test]
    #[should_panic(expected = "at least one test input")]
    fn detect_requires_inputs() {
        let (net, u, _) = setup();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let _ = sim.detect(&u, u.faults(), &[]);
    }
}
