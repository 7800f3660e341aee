use crate::{Layer, Network, NeuronBehaviorFault, NeuronFaultMap};
use serde::{Deserialize, Serialize};
use snn_tensor::{ops, Shape, Tensor};
use std::collections::HashMap;

/// What the forward pass records besides output spike trains.
///
/// Fault-simulation campaigns only need spikes; BPTT additionally needs
/// the pre-spike membrane potentials and integration gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordOptions {
    /// Record pre-spike membrane potentials and integration gates.
    pub potentials: bool,
}

impl RecordOptions {
    /// Record spike trains only (cheapest; enough for fault simulation).
    pub fn spikes_only() -> Self {
        Self { potentials: false }
    }

    /// Record everything BPTT needs.
    pub fn full() -> Self {
        Self { potentials: true }
    }
}

/// Recorded state of one layer over a full forward pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTrace {
    /// Layer output per timestep, `[T × n_out]`. Binary spikes for spiking
    /// layers; real-valued averages for pooling layers.
    pub output: Tensor,
    /// Pre-spike membrane potential `v[t]`, `[T × n]` (spiking layers with
    /// [`RecordOptions::full`] only).
    pub potential: Option<Tensor>,
    /// Integration gate: 1.0 where the neuron integrated at `t` (i.e. was
    /// not refractory), `[T × n]` (same recording condition).
    pub gate: Option<Tensor>,
}

impl LayerTrace {
    /// Spike count per neuron: `|O^{ℓi}|` in the paper's notation.
    pub fn spike_counts(&self) -> Vec<f32> {
        self.output.column_sums()
    }

    /// Number of neurons whose spike train is non-empty.
    pub fn activated_count(&self) -> usize {
        self.spike_counts().iter().filter(|&&c| c > 0.0).count()
    }
}

/// Full spatio-temporal record of a forward pass: one [`LayerTrace`] per
/// network layer, in order.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_model::{LifParams, NetworkBuilder, RecordOptions};
/// use snn_tensor::{Shape, Tensor};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(3, LifParams::default()).dense(2).build(&mut rng);
/// let trace = net.forward(&Tensor::zeros(Shape::d2(5, 3)), RecordOptions::full());
/// assert_eq!(trace.steps, 5);
/// assert_eq!(trace.layers.len(), 1);
/// // Zero input ⇒ zero spikes.
/// assert_eq!(trace.output().sum(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of simulated ticks.
    pub steps: usize,
    /// Per-layer records, aligned with `Network::layers()`.
    pub layers: Vec<LayerTrace>,
}

impl Trace {
    /// Output spike trains of the last layer, `[T × classes]` — the
    /// paper's `O^L`.
    pub fn output(&self) -> &Tensor {
        // snn-lint: allow(L-PANIC): a trace always records the non-empty network's layers
        &self.layers.last().expect("trace has at least one layer").output
    }

    /// Output spike count per class (rate-coding readout).
    pub fn class_counts(&self) -> Vec<f32> {
        // snn-lint: allow(L-PANIC): a trace always records the non-empty network's layers
        self.layers.last().expect("non-empty").spike_counts()
    }

    /// Index of the class with the highest output spike count (top-1
    /// prediction under rate coding). Ties break toward the lower index.
    pub fn predict(&self) -> usize {
        let counts = self.class_counts();
        let mut best = 0;
        for (i, &c) in counts.iter().enumerate() {
            if c > counts[best] {
                best = i;
            }
        }
        best
    }

    /// L1 distance between this trace's output spike trains and another's —
    /// the detection metric of the paper's Eq. (3).
    ///
    /// # Panics
    ///
    /// Panics if output shapes differ.
    pub fn output_distance(&self, other: &Trace) -> f32 {
        (self.output() - other.output()).l1_norm()
    }
}

/// Resumable per-neuron LIF integration state, carried across segmented
/// simulation calls.
///
/// A transient-fault window splits one logical forward pass into time
/// segments (fault-free prefix, faulty window, fault-free suffix); the
/// membrane potentials, refractory counters and previous-tick spikes must
/// survive the segment boundary for the stitched run to be bit-identical
/// to an unsegmented one.
#[derive(Debug, Clone, PartialEq)]
pub struct LifState {
    /// Membrane potential carried across ticks, per neuron.
    carried: Vec<f32>,
    /// Remaining refractory ticks, per neuron.
    refrac: Vec<u32>,
    /// Own spikes emitted on the previous tick (recurrent feedback input).
    prev_spikes: Vec<f32>,
}

impl LifState {
    /// Resting state for a layer of `n` neurons (what an unsegmented run
    /// starts from).
    pub fn fresh(n: usize) -> Self {
        Self { carried: vec![0.0; n], refrac: vec![0; n], prev_spikes: vec![0.0; n] }
    }
}

/// Resumable simulation state of one network layer.
///
/// Spiking layers carry a [`LifState`]; stateless layers (pooling) carry
/// nothing. A `Default` value means "not yet simulated" — the first
/// segment lazily initialises the state to resting conditions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerState {
    lif: Option<LifState>,
}

/// Per-neuron effective LIF constants after applying behavioural faults.
struct EffectiveParams {
    lif: Vec<crate::LifParams>,
    /// 0 = normal, 1 = dead, 2 = saturated.
    forced: Vec<u8>,
}

impl EffectiveParams {
    fn new(
        n: usize,
        lif: &crate::LifParams,
        faults: Option<&HashMap<usize, NeuronBehaviorFault>>,
    ) -> Self {
        let mut p = Self { lif: vec![*lif; n], forced: vec![0u8; n] };
        if let Some(map) = faults {
            for (&i, fault) in map {
                if i >= n {
                    continue;
                }
                match *fault {
                    NeuronBehaviorFault::Dead => p.forced[i] = 1,
                    NeuronBehaviorFault::Saturated => p.forced[i] = 2,
                    NeuronBehaviorFault::ParamScale {
                        threshold_scale,
                        leak_scale,
                        refrac_delta,
                    } => {
                        p.lif[i] = lif.with_timing_fault(threshold_scale, leak_scale, refrac_delta)
                    }
                }
            }
        }
        p
    }
}

/// Simulates one spiking layer over `steps` ticks.
///
/// `synaptic` computes the instantaneous synaptic drive `z[t]` for all
/// neurons given `(t, previous own spikes)` — the closure abstracts over
/// dense/conv/recurrent connectivity.
fn run_lif<F>(
    steps: usize,
    n: usize,
    params: EffectiveParams,
    record: RecordOptions,
    state: &mut LifState,
    mut synaptic: F,
) -> LayerTrace
where
    F: FnMut(usize, &[f32], &mut [f32]),
{
    let mut output = Tensor::zeros(Shape::d2(steps, n));
    let mut potential = record.potentials.then(|| Tensor::zeros(Shape::d2(steps, n)));
    let mut gate = record.potentials.then(|| Tensor::zeros(Shape::d2(steps, n)));

    let carried = &mut state.carried; // membrane carried across ticks
    let refrac = &mut state.refrac;
    let prev_spikes = &mut state.prev_spikes;
    let mut z = vec![0.0f32; n];

    for t in 0..steps {
        z.iter_mut().for_each(|v| *v = 0.0);
        synaptic(t, prev_spikes, &mut z);
        let out_row = {
            let data = output.as_mut_slice();
            &mut data[t * n..(t + 1) * n]
        };
        for i in 0..n {
            match params.forced[i] {
                1 => {
                    // Dead: halts spike propagation entirely.
                    out_row[i] = 0.0;
                    continue;
                }
                2 => {
                    // Saturated: fires every tick regardless of input.
                    out_row[i] = 1.0;
                    continue;
                }
                _ => {}
            }
            let tick = params.lif[i].step(&mut carried[i], &mut refrac[i], z[i]);
            out_row[i] = if tick.fired { 1.0 } else { 0.0 };
            // A refractory tick leaves gate and potential at 0.
            if let Some(v) = tick.potential {
                if let Some(p) = potential.as_mut() {
                    p.as_mut_slice()[t * n + i] = v;
                }
                if let Some(g) = gate.as_mut() {
                    g.as_mut_slice()[t * n + i] = 1.0;
                }
            }
        }
        let data = output.as_slice();
        prev_spikes.copy_from_slice(&data[t * n..(t + 1) * n]);
    }

    LayerTrace { output, potential, gate }
}

fn run_layer(
    layer: &Layer,
    input: &Tensor,
    record: RecordOptions,
    faults: Option<&HashMap<usize, NeuronBehaviorFault>>,
) -> LayerTrace {
    run_layer_segment(layer, input, 0, record, faults, &mut LayerState::default())
}

/// Simulates one layer over a *segment* of a longer run.
///
/// `t_offset` is the global tick the segment starts at; `state` carries
/// the membrane/refractory/feedback state across segment boundaries.
/// Calling this once with `t_offset == 0` and a default `state` is
/// exactly [`run_layer`]; calling it for consecutive segments with the
/// same `state` reproduces the unsegmented run bit for bit.
fn run_layer_segment(
    layer: &Layer,
    input: &Tensor,
    t_offset: usize,
    record: RecordOptions,
    faults: Option<&HashMap<usize, NeuronBehaviorFault>>,
    state: &mut LayerState,
) -> LayerTrace {
    let dims = input.shape().dims();
    assert_eq!(dims.len(), 2, "layer input must be [T × features]");
    let (steps, in_features) = (dims[0], dims[1]);
    assert_eq!(
        in_features,
        layer.in_features(),
        "layer expects {} features, input provides {in_features}",
        layer.in_features()
    );
    let n = layer.out_features();
    let in_data = input.as_slice();

    match layer {
        Layer::Dense(l) => {
            let params = EffectiveParams::new(n, &l.lif, faults);
            let lif = state.lif.get_or_insert_with(|| LifState::fresh(n));
            run_lif(steps, n, params, record, lif, |t, _prev, z| {
                ops::matvec(&l.weight, &in_data[t * in_features..(t + 1) * in_features], z);
            })
        }
        Layer::Conv(l) => {
            let params = EffectiveParams::new(n, &l.lif, faults);
            let (h, w) = l.in_hw;
            let lif = state.lif.get_or_insert_with(|| LifState::fresh(n));
            run_lif(steps, n, params, record, lif, |t, _prev, z| {
                ops::conv2d(
                    &l.spec,
                    &in_data[t * in_features..(t + 1) * in_features],
                    h,
                    w,
                    &l.weight,
                    z,
                );
            })
        }
        Layer::Recurrent(l) => {
            let params = EffectiveParams::new(n, &l.lif, faults);
            let mut z_rec = vec![0.0f32; n];
            let lif = state.lif.get_or_insert_with(|| LifState::fresh(n));
            run_lif(steps, n, params, record, lif, move |t, prev, z| {
                ops::matvec(&l.w_in, &in_data[t * in_features..(t + 1) * in_features], z);
                // Feedback applies from the second *global* tick on; at a
                // segment boundary `prev` already holds the last tick of
                // the previous segment.
                if t_offset + t > 0 {
                    ops::matvec(&l.w_rec, prev, &mut z_rec);
                    for (zi, ri) in z.iter_mut().zip(z_rec.iter()) {
                        *zi += ri;
                    }
                }
            })
        }
        Layer::Pool(l) => {
            let mut output = Tensor::zeros(Shape::d2(steps, n));
            let (h, w) = l.in_hw;
            for t in 0..steps {
                let out_data = output.as_mut_slice();
                ops::avg_pool2d(
                    &in_data[t * in_features..(t + 1) * in_features],
                    l.channels,
                    h,
                    w,
                    l.k,
                    &mut out_data[t * n..(t + 1) * n],
                );
            }
            LayerTrace { output, potential: None, gate: None }
        }
    }
}

impl Network {
    /// Fault-free forward pass over the whole network.
    ///
    /// `input` is `[T × input_features]` — one row per tick, matching the
    /// paper's binary input tensor `I` (values may be fractional when fed
    /// from a relaxed/Gumbel input).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not rank-2 or its feature count mismatches.
    pub fn forward(&self, input: &Tensor, record: RecordOptions) -> Trace {
        self.forward_faulty(input, record, &NeuronFaultMap::new())
    }

    /// Forward pass with behavioural neuron faults applied.
    pub fn forward_faulty(
        &self,
        input: &Tensor,
        record: RecordOptions,
        faults: &NeuronFaultMap,
    ) -> Trace {
        let _span = snn_obs::span!("snn.forward");
        let steps = input.shape().dim(0);
        let layers = self.forward_from(0, input, record, faults);
        Trace { steps, layers }
    }

    /// Simulates a single layer `idx` on the given input sequence.
    ///
    /// Building block for layer-by-layer fault simulation with early exit:
    /// the campaign re-simulates one layer at a time and stops as soon as
    /// the faulty activity matches the fault-free baseline.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or shapes mismatch.
    pub fn forward_layer(
        &self,
        idx: usize,
        input: &Tensor,
        record: RecordOptions,
        faults: &NeuronFaultMap,
    ) -> LayerTrace {
        assert!(idx < self.layers.len(), "layer index {idx} out of range");
        run_layer(&self.layers[idx], input, record, faults.layer_faults(idx))
    }

    /// Simulates layer `idx` over a time *segment*, resuming from `state`.
    ///
    /// `input` holds the segment's rows (`[T_seg × features]`),
    /// `t_offset` the global tick the segment starts at, and `state` the
    /// layer's integration state from earlier segments (a default
    /// [`LayerState`] means resting conditions). Running consecutive
    /// segments with the same `state` is bit-identical to one
    /// [`Network::forward_layer`] call over the concatenated input — the
    /// primitive behind transient-fault injection windows, where the
    /// fault set differs per segment.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or shapes mismatch.
    pub fn forward_layer_segment(
        &self,
        idx: usize,
        input: &Tensor,
        t_offset: usize,
        record: RecordOptions,
        faults: &NeuronFaultMap,
        state: &mut LayerState,
    ) -> LayerTrace {
        assert!(idx < self.layers.len(), "layer index {idx} out of range");
        run_layer_segment(
            &self.layers[idx],
            input,
            t_offset,
            record,
            faults.layer_faults(idx),
            state,
        )
    }

    /// Simulates layers `start..` using `stage_input` as the input sequence
    /// of layer `start`, returning their traces.
    ///
    /// This is the primitive behind prefix-cached fault simulation: a fault
    /// confined to layer `ℓ` cannot change the activity of layers `< ℓ` in
    /// a feedforward network, so the campaign re-simulates only the suffix.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range or shapes mismatch.
    pub fn forward_from(
        &self,
        start: usize,
        stage_input: &Tensor,
        record: RecordOptions,
        faults: &NeuronFaultMap,
    ) -> Vec<LayerTrace> {
        assert!(start < self.layers.len(), "start layer {start} out of range");
        let mut traces = Vec::with_capacity(self.layers.len() - start);
        let mut current: Option<Tensor> = None;
        for (idx, layer) in self.layers.iter().enumerate().skip(start) {
            let input = current.as_ref().unwrap_or(stage_input);
            let trace = run_layer(layer, input, record, faults.layer_faults(idx));
            current = Some(trace.output.clone());
            traces.push(trace);
        }
        traces
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact spike/gradient values
mod tests {
    use super::*;
    use crate::{DenseLayer, LifParams, NetworkBuilder, PoolLayer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_tensor::Shape;

    /// Single neuron, weight 0.4, threshold 1.0, leak 1.0 (no decay), no
    /// refractory: needs 3 input spikes to fire (0.4, 0.8, 1.2 ≥ 1.0).
    #[test]
    fn integrate_and_fire_counts_spikes() {
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![0.4]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(6, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        let out = trace.output().as_slice();
        // v: 0.4, 0.8, 1.2→spike, 0.4, 0.8, 1.2→spike
        assert_eq!(out, &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let pot = trace.layers[0].potential.as_ref().unwrap().as_slice();
        assert!((pot[2] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn leak_decays_the_membrane() {
        // weight 0.6, leak 0.5: v alternates 0.6, 0.9, 1.05→spike...
        let lif = LifParams { threshold: 1.0, leak: 0.5, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![0.6]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(3, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        let pot = trace.layers[0].potential.as_ref().unwrap().as_slice();
        assert!((pot[0] - 0.6).abs() < 1e-6);
        assert!((pot[1] - 0.9).abs() < 1e-6);
        assert!((pot[2] - 1.05).abs() < 1e-6);
        assert_eq!(trace.output().as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn refractory_blocks_integration() {
        // weight 1.0: fires at t=0, then refractory for 2 ticks, fires at t=3.
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 2 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(6, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        assert_eq!(trace.output().as_slice(), &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let gate = trace.layers[0].gate.as_ref().unwrap().as_slice();
        assert_eq!(gate, &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn dead_fault_silences_neuron() {
        let lif = LifParams { threshold: 0.5, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(4, 1), 1.0);
        let faults = NeuronFaultMap::single(0, 0, NeuronBehaviorFault::Dead);
        let trace = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        assert_eq!(trace.output().sum(), 0.0);
    }

    #[test]
    fn saturated_fault_fires_without_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(2, LifParams::default()).dense(3).build(&mut rng);
        let input = Tensor::zeros(Shape::d2(5, 2));
        let faults = NeuronFaultMap::single(0, 1, NeuronBehaviorFault::Saturated);
        let trace = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        let counts = trace.layers[0].spike_counts();
        assert_eq!(counts, vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn param_fault_changes_firing_rate() {
        // Nominal: weight 0.6, θ=1.0 fires every 2 ticks. θ×2 ⇒ fires
        // every 4 ticks (0.6,1.2? no: accumulate 0.6,1.2,1.8,2.4≥2.0).
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![0.6]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(8, 1), 1.0);
        let nominal = net.forward(&input, RecordOptions::spikes_only());
        let faults = NeuronFaultMap::single(
            0,
            0,
            NeuronBehaviorFault::ParamScale {
                threshold_scale: 2.0,
                leak_scale: 1.0,
                refrac_delta: 0,
            },
        );
        let faulty = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        assert!(faulty.output().sum() < nominal.output().sum());
        assert!(nominal.output_distance(&faulty) > 0.0);
    }

    #[test]
    fn pool_layer_outputs_fractional_averages() {
        let net = Network::new(Shape::d3(1, 2, 2), vec![Layer::Pool(PoolLayer::new(1, (2, 2), 2))]);
        let input = Tensor::from_vec(Shape::d2(1, 4), vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let trace = net.forward(&input, RecordOptions::spikes_only());
        assert_eq!(trace.output().as_slice(), &[0.5]);
    }

    #[test]
    fn forward_from_matches_full_forward() {
        let mut rng = StdRng::seed_from_u64(7);
        let net =
            NetworkBuilder::new(6, LifParams::default()).dense(8).dense(4).dense(2).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(12, 6), 0.5);
        let full = net.forward(&input, RecordOptions::spikes_only());
        let suffix = net.forward_from(
            1,
            &full.layers[0].output,
            RecordOptions::spikes_only(),
            &NeuronFaultMap::new(),
        );
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].output, full.layers[1].output);
        assert_eq!(suffix[1].output, full.layers[2].output);
    }

    #[test]
    fn predict_uses_rate_coding() {
        let lif = LifParams { threshold: 0.5, leak: 1.0, refrac_steps: 0 };
        // Two outputs; weight to output 1 is double.
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(2, 1), vec![0.3, 0.9]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(10, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::spikes_only());
        assert_eq!(trace.predict(), 1);
    }

    #[test]
    fn recurrent_layer_feeds_back_spikes() {
        // One recurrent unit: strong input weight fires it at t=0; strong
        // recurrent weight keeps it firing even after input stops.
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let l = crate::RecurrentLayer::new(
            Tensor::from_vec(Shape::d2(1, 1), vec![1.5]).unwrap(),
            Tensor::from_vec(Shape::d2(1, 1), vec![1.5]).unwrap(),
            lif,
        );
        let net = Network::new(Shape::d1(1), vec![Layer::Recurrent(l)]);
        let mut input = Tensor::zeros(Shape::d2(5, 1));
        input[[0, 0]] = 1.0; // single kick
        let trace = net.forward(&input, RecordOptions::spikes_only());
        // t=0 fires from input; t≥1 fires from recurrence.
        assert_eq!(trace.output().sum(), 5.0);
    }

    /// Splits `input` at `k` and simulates layer 0 in two segments with a
    /// shared state, returning the concatenated output rows.
    fn segmented_layer_output(net: &Network, input: &Tensor, k: usize) -> Vec<f32> {
        let dims = input.shape().dims();
        let (steps, f) = (dims[0], dims[1]);
        let data = input.as_slice();
        let head = Tensor::from_vec(Shape::d2(k, f), data[..k * f].to_vec()).unwrap();
        let tail = Tensor::from_vec(Shape::d2(steps - k, f), data[k * f..].to_vec()).unwrap();
        let mut state = LayerState::default();
        let empty = NeuronFaultMap::new();
        let a = net.forward_layer_segment(
            0,
            &head,
            0,
            RecordOptions::spikes_only(),
            &empty,
            &mut state,
        );
        let b = net.forward_layer_segment(
            0,
            &tail,
            k,
            RecordOptions::spikes_only(),
            &empty,
            &mut state,
        );
        let mut out = a.output.as_slice().to_vec();
        out.extend_from_slice(b.output.as_slice());
        out
    }

    #[test]
    fn segmented_dense_matches_one_shot() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = NetworkBuilder::new(5, LifParams::default()).dense(7).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(13, 5), 0.5);
        let full =
            net.forward_layer(0, &input, RecordOptions::spikes_only(), &NeuronFaultMap::new());
        for k in [1, 4, 12] {
            assert_eq!(segmented_layer_output(&net, &input, k), full.output.as_slice());
        }
    }

    #[test]
    fn segmented_conv_matches_one_shot() {
        let mut rng = StdRng::seed_from_u64(12);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(10, 16), 0.4);
        let full =
            net.forward_layer(0, &input, RecordOptions::spikes_only(), &NeuronFaultMap::new());
        assert_eq!(segmented_layer_output(&net, &input, 5), full.output.as_slice());
    }

    #[test]
    fn segmented_recurrent_matches_one_shot() {
        // The single kick at t=0 only sustains if recurrent feedback is
        // live across the segment boundary — this pins the t_offset logic.
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let l = crate::RecurrentLayer::new(
            Tensor::from_vec(Shape::d2(1, 1), vec![1.5]).unwrap(),
            Tensor::from_vec(Shape::d2(1, 1), vec![1.5]).unwrap(),
            lif,
        );
        let net = Network::new(Shape::d1(1), vec![Layer::Recurrent(l)]);
        let mut input = Tensor::zeros(Shape::d2(6, 1));
        input[[0, 0]] = 1.0;
        let full =
            net.forward_layer(0, &input, RecordOptions::spikes_only(), &NeuronFaultMap::new());
        assert_eq!(full.output.sum(), 6.0);
        for k in [1, 3, 5] {
            assert_eq!(segmented_layer_output(&net, &input, k), full.output.as_slice());
        }
    }

    #[test]
    fn segmented_pool_matches_one_shot() {
        let net = Network::new(Shape::d3(1, 2, 2), vec![Layer::Pool(PoolLayer::new(1, (2, 2), 2))]);
        let input = Tensor::from_vec(
            Shape::d2(4, 4),
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        let full =
            net.forward_layer(0, &input, RecordOptions::spikes_only(), &NeuronFaultMap::new());
        assert_eq!(segmented_layer_output(&net, &input, 2), full.output.as_slice());
    }

    #[test]
    fn forward_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .dense(3)
            .build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(9, 16), 0.4);
        let a = net.forward(&input, RecordOptions::full());
        let b = net.forward(&input, RecordOptions::full());
        assert_eq!(a, b);
    }
}
