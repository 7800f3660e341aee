//! Golden (fault-free) trajectories of the dense suffix, precomputed
//! once per test input and shared read-only by every pack.
//!
//! The packed kernel leans on the golden run three ways:
//!
//! * **`z` reuse** — at any tick where a lane's input row equals the
//!   golden row, its synaptic drive equals the golden drive *bitwise*
//!   (see `snn_tensor::packed` for the `±0.0` argument), so the stored
//!   `z` replaces a full row of dot products;
//! * **lazy materialization** — a lane that first diverges at tick `t0`
//!   evolved identically to the golden run before `t0`, so its membrane
//!   and refractory state at `t0` is exactly the stored pre-tick golden
//!   state — per-lane `f32` state is copied only from there on;
//! * **divergence tests** — lane spike rows are compared against the
//!   golden output rows to resolve reconverged lanes early.
//!
//! The replay computes the drive with the scalar engine's `matvec` and
//! advances each neuron with the same [`snn_model::LifParams::step`]
//! `run_lif` calls, so every stored value is bit-identical to what the
//! scalar engine computes; a debug assertion cross-checks the replayed
//! spikes against the recorded baseline trace.

use snn_model::{Network, Trace};
use snn_obs::phase::LocalPhases;
use snn_tensor::{ops, Tensor};

/// Golden per-tick records of one dense layer under one test input.
pub(crate) struct GoldenLayer {
    /// Neurons in the layer.
    pub n: usize,
    /// Simulated ticks.
    pub steps: usize,
    /// Synaptic drive `z[t*n + q]` of neuron `q` at tick `t`.
    pub z: Vec<f32>,
    /// Membrane potential carried *into* tick `t` (before any update).
    pub carried_pre: Vec<f32>,
    /// Refractory counter carried *into* tick `t`.
    pub refrac_pre: Vec<u32>,
    /// Golden output spikes, `[T × n]` row-major (binary).
    pub out: Vec<f32>,
}

impl GoldenLayer {
    /// `true` when golden neuron `q` spikes at tick `t`.
    pub fn spike(&self, t: usize, q: usize) -> bool {
        // snn-lint: allow(L-FLOATEQ): spikes are exact 0.0/1.0 values
        self.out[t * self.n + q] != 0.0
    }
}

/// Replays the fault-free run of layers `suffix_start..` of `net` under
/// `test`, recording drives, pre-tick state and spikes per layer. The
/// layer inputs come from `baseline` (the recorded fault-free trace), so
/// the replay is per-layer, not chained. Forward time is recorded into
/// `local` under each layer's `forward` slot.
pub(crate) fn golden_suffix(
    net: &Network,
    test: &Tensor,
    baseline: &Trace,
    suffix_start: usize,
    local: &mut LocalPhases,
) -> Vec<GoldenLayer> {
    let num_layers = net.layers().len();
    let mut layers = Vec::with_capacity(num_layers - suffix_start);
    for idx in suffix_start..num_layers {
        let forward_started = snn_obs::clock::monotonic();
        let input: &Tensor = if idx == 0 { test } else { &baseline.layers[idx - 1].output };
        let gl = replay_dense(net, idx, input);
        debug_assert!(
            gl.out
                .iter()
                .zip(baseline.layers[idx].output.as_slice().iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "golden replay of layer {idx} disagrees with the baseline trace"
        );
        local.add_forward(idx, snn_obs::clock::monotonic().saturating_sub(forward_started));
        layers.push(gl);
    }
    layers
}

/// Replays one dense layer tick for tick, recording everything the
/// packed kernel reuses.
fn replay_dense(net: &Network, idx: usize, input: &Tensor) -> GoldenLayer {
    let layer = crate::dense_layer(net, idx);
    let dims = input.shape().dims();
    let (steps, in_features) = (dims[0], dims[1]);
    let n = layer.weight.shape().dim(0);
    let in_data = input.as_slice();
    let lif = &layer.lif;

    let mut gl = GoldenLayer {
        n,
        steps,
        z: vec![0.0f32; steps * n],
        carried_pre: vec![0.0f32; steps * n],
        refrac_pre: vec![0u32; steps * n],
        out: vec![0.0f32; steps * n],
    };
    let mut carried = vec![0.0f32; n];
    let mut refrac = vec![0u32; n];
    for t in 0..steps {
        gl.carried_pre[t * n..(t + 1) * n].copy_from_slice(&carried);
        gl.refrac_pre[t * n..(t + 1) * n].copy_from_slice(&refrac);
        ops::matvec(
            &layer.weight,
            &in_data[t * in_features..(t + 1) * in_features],
            &mut gl.z[t * n..(t + 1) * n],
        );
        for q in 0..n {
            if lif.step(&mut carried[q], &mut refrac[q], gl.z[t * n + q]).fired {
                gl.out[t * n + q] = 1.0;
            }
        }
    }
    gl
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder, RecordOptions};
    use snn_tensor::Shape;

    #[test]
    fn replay_matches_baseline_bitwise_and_records_pre_state() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetworkBuilder::new(5, LifParams { refrac_steps: 2, ..LifParams::default() })
            .dense(8)
            .dense(3)
            .build(&mut rng);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(24, 5), 0.5);
        let baseline = net.forward(&test, RecordOptions::spikes_only());
        let golden = golden_suffix(&net, &test, &baseline, 0, &mut LocalPhases::new());
        assert_eq!(golden.len(), 2);
        for (idx, gl) in golden.iter().enumerate() {
            assert_eq!(gl.steps, 24);
            let b = baseline.layers[idx].output.as_slice();
            assert_eq!(gl.out.len(), b.len());
            assert!(gl.out.iter().zip(b.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
            // Tick 0 always starts from resting state.
            assert!(gl.carried_pre[..gl.n].iter().all(|&c| c.to_bits() == 0));
            assert!(gl.refrac_pre[..gl.n].iter().all(|&r| r == 0));
        }
        // The refractory pre-state is populated somewhere (refrac_steps=2
        // and the stimulus is dense, so some neuron fires and rests).
        assert!(golden.iter().any(|gl| gl.refrac_pre.iter().any(|&r| r > 0)));
    }

    #[test]
    fn resuming_from_pre_state_reproduces_the_suffix() {
        // Bit-exact resume: replaying a layer from the recorded pre-tick
        // state at any t0 must reproduce the golden tail — this is the
        // property lazy lane materialization rests on.
        let mut rng = StdRng::seed_from_u64(6);
        let net = NetworkBuilder::new(4, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(6)
            .build(&mut rng);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 4), 0.5);
        let baseline = net.forward(&test, RecordOptions::spikes_only());
        let gl = &golden_suffix(&net, &test, &baseline, 0, &mut LocalPhases::new())[0];
        let lif = &crate::dense_layer(&net, 0).lif;
        let n = gl.n;
        for t0 in [0usize, 5, 13, 19] {
            let mut carried = gl.carried_pre[t0 * n..(t0 + 1) * n].to_vec();
            let mut refrac = gl.refrac_pre[t0 * n..(t0 + 1) * n].to_vec();
            for t in t0..gl.steps {
                for q in 0..n {
                    let fired = lif.step(&mut carried[q], &mut refrac[q], gl.z[t * n + q]).fired;
                    assert_eq!(fired, gl.spike(t, q), "t0={t0} t={t} q={q}");
                }
            }
        }
    }
}
