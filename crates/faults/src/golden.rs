//! Golden (fault-free) trajectories of the packable suffix, precomputed
//! once per test input and shared read-only by every pack.
//!
//! The packed kernel leans on the golden run three ways:
//!
//! * **drive reuse** — at any tick where a lane's input row equals the
//!   golden row, its feed-forward drive equals the golden `z_in`
//!   *bitwise* (see `snn_tensor::packed` for the `±0.0` argument), and
//!   where a recurrent lane's previous output row equals the golden row,
//!   its feedback drive equals the golden `z_rec` — so the stored drives
//!   replace whole rows of dot products;
//! * **lazy materialization** — a lane that first diverges at tick `t0`
//!   evolved identically to the golden run before `t0`, so its membrane
//!   and refractory state at `t0` is exactly the stored pre-tick golden
//!   state — per-lane `f32` state is copied only from there on;
//! * **divergence tests** — lane spike rows are compared against the
//!   golden output rows to resolve reconverged lanes early.
//!
//! The two drive parts are stored apart because the scalar engine sums
//! them as `z_in + z_rec` — and only from global tick 1 on: at tick 0 a
//! recurrent layer gets no feedback and its drive is `z_in` itself (not
//! `z_in + 0.0`, which turns a `-0.0` into `+0.0`). [`drive`] is that
//! rule, shared by the replay and the packed kernel.
//!
//! The replay computes the drives with the scalar engine's `matvec` and
//! advances each neuron with the same [`snn_model::LifParams::step`]
//! `run_lif` calls, so every stored value is bit-identical to what the
//! scalar engine computes; a debug assertion cross-checks the replayed
//! spikes against the recorded baseline trace.

use snn_model::{Network, Trace};
use snn_obs::phase::LocalPhases;
use snn_tensor::{ops, Tensor};

/// A neuron's synaptic drive at tick `t` from its feed-forward and
/// feedback parts, summed exactly as the scalar engine sums them: a
/// dense layer (`recurrent == false`) and tick 0 of a recurrent layer
/// take the feed-forward part alone.
#[inline]
pub(crate) fn drive(recurrent: bool, t: usize, z_in: f32, z_rec: f32) -> f32 {
    if recurrent && t > 0 {
        z_in + z_rec
    } else {
        z_in
    }
}

/// Golden per-tick records of one packable layer under one test input.
pub(crate) struct GoldenLayer {
    /// Neurons in the layer.
    pub n: usize,
    /// Simulated ticks.
    pub steps: usize,
    /// Feed-forward drive `z_in[t*n + q]` (`W · x` or `W_in · x`) of
    /// neuron `q` at tick `t`.
    pub z_in: Vec<f32>,
    /// Feedback drive `W_rec · s[t−1]`, laid out like `z_in`; empty for a
    /// dense layer, zero at tick 0 (where it is never added).
    pub z_rec: Vec<f32>,
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

    /// `true` for a recurrent layer (one with a feedback drive).
    pub fn recurrent(&self) -> bool {
        !self.z_rec.is_empty()
    }

    /// Golden drive parts `(z_in, z_rec)` of neuron `q` at tick `t`
    /// (`z_rec` is `0.0` on a dense layer).
    pub fn parts(&self, t: usize, q: usize) -> (f32, f32) {
        let i = t * self.n + q;
        (self.z_in[i], self.z_rec.get(i).copied().unwrap_or(0.0))
    }

    /// Golden drive of neuron `q` at tick `t` (see [`drive`]).
    pub fn drive_at(&self, t: usize, q: usize) -> f32 {
        let (z_in, z_rec) = self.parts(t, q);
        drive(self.recurrent(), t, z_in, z_rec)
    }

    /// Golden output row `t`.
    pub fn row(&self, t: usize) -> &[f32] {
        &self.out[t * self.n..(t + 1) * self.n]
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
        let gl = replay(net, idx, input);
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

/// Replays one dense or recurrent layer tick for tick, recording
/// everything the packed kernel reuses.
fn replay(net: &Network, idx: usize, input: &Tensor) -> GoldenLayer {
    let layer = crate::plan::suffix_layer(net, idx);
    let dims = input.shape().dims();
    let (steps, in_features) = (dims[0], dims[1]);
    let n = layer.w_in.shape().dim(0);
    let in_data = input.as_slice();
    let recurrent = layer.w_rec.is_some();

    let mut gl = GoldenLayer {
        n,
        steps,
        z_in: vec![0.0f32; steps * n],
        z_rec: if recurrent { vec![0.0f32; steps * n] } else { Vec::new() },
        carried_pre: vec![0.0f32; steps * n],
        refrac_pre: vec![0u32; steps * n],
        out: vec![0.0f32; steps * n],
    };
    let mut carried = vec![0.0f32; n];
    let mut refrac = vec![0u32; n];
    for t in 0..steps {
        let row = t * n..(t + 1) * n;
        gl.carried_pre[row.clone()].copy_from_slice(&carried);
        gl.refrac_pre[row.clone()].copy_from_slice(&refrac);
        ops::matvec(
            layer.w_in,
            &in_data[t * in_features..(t + 1) * in_features],
            &mut gl.z_in[row.clone()],
        );
        if let (Some(w_rec), true) = (layer.w_rec, t > 0) {
            ops::matvec(w_rec, &gl.out[(t - 1) * n..t * n], &mut gl.z_rec[row]);
        }
        for q in 0..n {
            let z = gl.drive_at(t, q);
            if layer.lif.step(&mut carried[q], &mut refrac[q], z).fired {
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
            assert!(!gl.recurrent());
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

    /// Resumes `gl` from its recorded pre-tick state at `t0` and checks
    /// every spike of the tail against the golden run — the property lazy
    /// lane materialization rests on. Recurrent layers resume with the
    /// stored feedback drive, as materialization does while a lane's
    /// previous row is golden.
    fn assert_resume_reproduces_tail(gl: &GoldenLayer, lif: &LifParams, t0: usize) {
        let n = gl.n;
        let mut carried = gl.carried_pre[t0 * n..(t0 + 1) * n].to_vec();
        let mut refrac = gl.refrac_pre[t0 * n..(t0 + 1) * n].to_vec();
        for t in t0..gl.steps {
            for q in 0..n {
                let fired = lif.step(&mut carried[q], &mut refrac[q], gl.drive_at(t, q)).fired;
                assert_eq!(fired, gl.spike(t, q), "t0={t0} t={t} q={q}");
            }
        }
    }

    #[test]
    fn resuming_from_pre_state_reproduces_the_suffix() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = NetworkBuilder::new(4, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(6)
            .build(&mut rng);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 4), 0.5);
        let baseline = net.forward(&test, RecordOptions::spikes_only());
        let gl = &golden_suffix(&net, &test, &baseline, 0, &mut LocalPhases::new())[0];
        let lif = crate::plan::suffix_layer(&net, 0).lif;
        for t0 in [0usize, 5, 13, 19] {
            assert_resume_reproduces_tail(gl, lif, t0);
        }
    }

    fn recurrent_net(seed: u64) -> (Network, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
            .recurrent(10)
            .dense(3)
            .build(&mut rng);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 6), 0.5);
        (net, test)
    }

    #[test]
    fn recurrent_replay_matches_baseline_bitwise() {
        let (net, test) = recurrent_net(7);
        let baseline = net.forward(&test, RecordOptions::spikes_only());
        let golden = golden_suffix(&net, &test, &baseline, 0, &mut LocalPhases::new());
        assert_eq!(golden.len(), 2);
        let gl = &golden[0];
        assert!(gl.recurrent());
        assert!(!golden[1].recurrent());
        let b = baseline.layers[0].output.as_slice();
        assert!(gl.out.iter().zip(b.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(gl.out.iter().any(|&s| s != 0.0), "test needs a layer that spikes");

        // No feedback at tick 0: the stored feedback row is zero and the
        // drive is z_in itself, bit for bit (a negative-zero z_in stays
        // negative zero).
        assert!(gl.z_rec[..gl.n].iter().all(|&z| z.to_bits() == 0));
        assert_eq!(drive(true, 0, -0.0, 0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(drive(true, 1, -0.0, 0.0).to_bits(), 0.0f32.to_bits());

        // From tick 1 on, z_rec is W_rec · s[t−1] over the golden spikes,
        // bitwise the scalar engine's matvec.
        let w_rec = crate::plan::suffix_layer(&net, 0).w_rec.unwrap();
        let mut expect = vec![0.0f32; gl.n];
        for t in 1..gl.steps {
            ops::matvec(w_rec, gl.row(t - 1), &mut expect);
            let got = &gl.z_rec[t * gl.n..(t + 1) * gl.n];
            assert!(got.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()), "t={t}");
        }
    }

    #[test]
    fn recurrent_resume_from_pre_state_reproduces_the_tail() {
        let (net, test) = recurrent_net(8);
        let baseline = net.forward(&test, RecordOptions::spikes_only());
        let gl = &golden_suffix(&net, &test, &baseline, 0, &mut LocalPhases::new())[0];
        assert!(gl.refrac_pre.iter().any(|&r| r > 0), "test needs a refractory neuron");
        let lif = crate::plan::suffix_layer(&net, 0).lif;
        for t0 in [0usize, 1, 9, 17, 29] {
            assert_resume_reproduces_tail(gl, lif, t0);
        }
    }
}
