use serde::{Deserialize, Serialize};

/// Parameters of the discrete-time Leaky-Integrate-and-Fire neuron.
///
/// Per simulation tick a non-refractory neuron updates its membrane
/// potential as `v ← leak·v + z` where `z` is the weighted sum of incoming
/// spikes. When `v ≥ threshold` the neuron emits a spike, the potential is
/// reset to zero and the neuron ignores input for `refrac_steps` ticks —
/// exactly the behaviour sketched in the paper's Fig. 1.
///
/// # Example
///
/// ```
/// use snn_model::LifParams;
///
/// let p = LifParams::default();
/// assert!(p.leak > 0.0 && p.leak <= 1.0);
/// let fast = LifParams { refrac_steps: 0, ..p };
/// assert_eq!(fast.refrac_steps, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifParams {
    /// Firing threshold `θ` on the membrane potential.
    pub threshold: f32,
    /// Multiplicative leak `λ ∈ (0, 1]` applied to the carried potential
    /// each tick (1.0 = perfect integrator).
    pub leak: f32,
    /// Number of ticks after a spike during which the neuron neither
    /// integrates nor fires.
    pub refrac_steps: u32,
}

impl LifParams {
    /// Validates the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field, if any.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.threshold.is_finite() && self.threshold > 0.0) {
            return Err(format!("threshold must be finite and positive, got {}", self.threshold));
        }
        if !(self.leak > 0.0 && self.leak <= 1.0) {
            return Err(format!("leak must be in (0, 1], got {}", self.leak));
        }
        Ok(())
    }

    /// The parameters a timing-variation fault leaves behind: threshold
    /// `max(θ·threshold_scale, ε)`, leak `clamp(λ·leak_scale, ε, 1)` and
    /// refractory period `max(r + refrac_delta, 0)`.
    pub fn with_timing_fault(
        &self,
        threshold_scale: f32,
        leak_scale: f32,
        refrac_delta: i32,
    ) -> Self {
        Self {
            threshold: (self.threshold * threshold_scale).max(f32::EPSILON),
            leak: (self.leak * leak_scale).clamp(f32::EPSILON, 1.0),
            refrac_steps: self.refrac_steps.saturating_add_signed(refrac_delta),
        }
    }

    /// Advances one neuron by one tick under synaptic drive `z` — the
    /// single leak–integrate–fire update every engine runs.
    ///
    /// A refractory neuron counts `refrac` down, holds its membrane at 0
    /// and neither integrates nor fires. Otherwise it integrates
    /// `v = leak·carried + z`; when `v ≥ threshold` it fires, resets the
    /// membrane to 0 and enters `refrac_steps` refractory ticks, else it
    /// carries `v` into the next tick.
    ///
    /// # Example
    ///
    /// ```
    /// use snn_model::LifParams;
    ///
    /// let p = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 1 };
    /// let (mut carried, mut refrac) = (0.0f32, 0u32);
    /// let fired: Vec<bool> =
    ///     (0..4).map(|_| p.step(&mut carried, &mut refrac, 0.6).fired).collect();
    /// assert_eq!(fired, [false, true, false, false]);
    /// ```
    #[inline]
    pub fn step(&self, carried: &mut f32, refrac: &mut u32, z: f32) -> LifTick {
        if *refrac > 0 {
            *refrac -= 1;
            *carried = 0.0;
            return LifTick { potential: None, fired: false };
        }
        let v = self.leak * *carried + z;
        let fired = v >= self.threshold;
        if fired {
            *carried = 0.0;
            *refrac = self.refrac_steps;
        } else {
            *carried = v;
        }
        LifTick { potential: Some(v), fired }
    }
}

impl Default for LifParams {
    fn default() -> Self {
        Self { threshold: 1.0, leak: 0.9, refrac_steps: 2 }
    }
}

/// Outcome of one [`LifParams::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifTick {
    /// Pre-reset membrane potential `v`; `None` when the neuron was
    /// refractory and did not integrate.
    pub potential: Option<f32>,
    /// Whether the neuron fired.
    pub fired: bool,
}

/// Surrogate derivative used for the non-differentiable spike function
/// during BPTT.
///
/// The forward pass uses the hard Heaviside `s = H(v − θ)`; the backward
/// pass substitutes `ds/dv` with one of these smooth approximations
/// evaluated at `v − θ`.
///
/// # Example
///
/// ```
/// use snn_model::Surrogate;
///
/// let s = Surrogate::default();
/// // The surrogate is maximal at the threshold and decays away from it.
/// assert!(s.grad(0.0) > s.grad(1.0));
/// assert!(s.grad(0.0) > s.grad(-1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Surrogate {
    /// SLAYER-style fast sigmoid: `1 / (1 + k·|x|)²` scaled so the peak is
    /// `1`.
    FastSigmoid {
        /// Sharpness `k` (larger = narrower support around the threshold).
        slope: f32,
    },
    /// Arctangent surrogate: `1 / (1 + (π·α·x)²)`.
    Atan {
        /// Width parameter `α`.
        alpha: f32,
    },
    /// Rectangular window: `1/width` for `|x| < width/2`, else 0.
    Rect {
        /// Window width around the threshold.
        width: f32,
    },
}

impl Surrogate {
    /// Evaluates the surrogate spike derivative at `x = v − θ`.
    pub fn grad(&self, x: f32) -> f32 {
        match *self {
            Surrogate::FastSigmoid { slope } => {
                let d = 1.0 + slope * x.abs();
                1.0 / (d * d)
            }
            Surrogate::Atan { alpha } => {
                let t = std::f32::consts::PI * alpha * x;
                1.0 / (1.0 + t * t)
            }
            Surrogate::Rect { width } => {
                if x.abs() < width * 0.5 {
                    1.0 / width
                } else {
                    0.0
                }
            }
        }
    }
}

impl Default for Surrogate {
    fn default() -> Self {
        Surrogate::FastSigmoid { slope: 5.0 }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact spike/gradient values
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_params_are_valid() {
        assert!(LifParams::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_threshold_and_leak() {
        let mut p = LifParams { threshold: 0.0, ..LifParams::default() };
        assert!(p.validate().is_err());
        p.threshold = f32::NAN;
        assert!(p.validate().is_err());
        p = LifParams::default();
        p.leak = 0.0;
        assert!(p.validate().is_err());
        p.leak = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn fast_sigmoid_peaks_at_threshold() {
        let s = Surrogate::FastSigmoid { slope: 5.0 };
        assert_eq!(s.grad(0.0), 1.0);
        assert!(s.grad(0.5) < 1.0);
    }

    #[test]
    fn rect_is_a_window() {
        let s = Surrogate::Rect { width: 1.0 };
        assert_eq!(s.grad(0.0), 1.0);
        assert_eq!(s.grad(0.49), 1.0);
        assert_eq!(s.grad(0.51), 0.0);
        assert_eq!(s.grad(-0.51), 0.0);
    }

    // Properties of the one LIF step. Its spike output is binary by type
    // (`fired: bool`); `tests/invariants.rs::outputs_are_binary` pins the
    // recorded spike trains that `run_lif` builds from it.

    /// Runs [`LifParams::step`] from resting state over `drives`.
    fn run(lif: &LifParams, drives: &[f32]) -> Vec<(LifTick, f32)> {
        let (mut carried, mut refrac) = (0.0f32, 0u32);
        drives.iter().map(|&z| (lif.step(&mut carried, &mut refrac, z), carried)).collect()
    }

    proptest! {
        #[test]
        fn membrane_resets_to_zero_on_fire(
            threshold in 0.1f32..2.0,
            leak in 0.05f32..1.0,
            refrac_steps in 0u32..4,
            drives in prop::collection::vec(-1.0f32..3.0, 1..64)
        ) {
            let lif = LifParams { threshold, leak, refrac_steps };
            for (tick, carried) in run(&lif, &drives) {
                prop_assert_eq!(tick.fired, tick.potential.is_some_and(|v| v >= threshold));
                // Fired or refractory: membrane at 0; else it carries v.
                let expect = match tick.potential {
                    Some(v) if !tick.fired => v,
                    _ => 0.0,
                };
                prop_assert_eq!(carried.to_bits(), expect.to_bits());
            }
        }

        #[test]
        fn constant_subthreshold_drive_never_fires(
            threshold in 0.1f32..2.0,
            leak in 0.05f32..1.0,
            frac in -1.0f32..1.0,
            steps in 1usize..200
        ) {
            let lif = LifParams { threshold, leak, refrac_steps: 0 };
            let z = (threshold - leak * threshold) * frac;
            if leak * threshold + z >= threshold {
                return Ok(());
            }
            prop_assert!(run(&lif, &vec![z; steps]).iter().all(|(tick, _)| !tick.fired));
        }

        #[test]
        fn refractory_gap_follows_every_spike(
            threshold in 0.1f32..2.0,
            leak in 0.05f32..1.0,
            refrac_steps in 0u32..5,
            drives in prop::collection::vec(0.0f32..3.0, 1..64)
        ) {
            let lif = LifParams { threshold, leak, refrac_steps };
            let ticks = run(&lif, &drives);
            let gap = refrac_steps as usize;
            for (t, (tick, _)) in ticks.iter().enumerate() {
                if !tick.fired {
                    continue;
                }
                for (silent, _) in ticks.iter().skip(t + 1).take(gap) {
                    prop_assert!(silent.potential.is_none() && !silent.fired);
                }
                if let Some((next, _)) = ticks.get(t + 1 + gap) {
                    prop_assert!(next.potential.is_some(), "neuron still refractory at {}", t + 1 + gap);
                }
            }
        }

        #[test]
        fn timing_fault_parameters_stay_in_range(
            threshold in 0.01f32..4.0,
            leak in 0.01f32..1.0,
            refrac_steps in 0u32..6,
            threshold_scale in -2.0f32..4.0,
            leak_scale in -2.0f32..4.0,
            refrac_delta in -10i32..10
        ) {
            let lif = LifParams { threshold, leak, refrac_steps };
            let f = lif.with_timing_fault(threshold_scale, leak_scale, refrac_delta);
            prop_assert!(f.threshold >= f32::EPSILON);
            prop_assert!((f32::EPSILON..=1.0).contains(&f.leak));
            prop_assert_eq!(i64::from(f.refrac_steps), (i64::from(refrac_steps) + i64::from(refrac_delta)).max(0));
        }

        #[test]
        fn surrogates_are_nonnegative_even_and_decay(
            x in 0.01f32..10.0
        ) {
            for s in [
                Surrogate::FastSigmoid { slope: 5.0 },
                Surrogate::Atan { alpha: 2.0 },
                Surrogate::Rect { width: 1.0 },
            ] {
                let g = s.grad(x);
                prop_assert!(g >= 0.0);
                prop_assert!((g - s.grad(-x)).abs() < 1e-6, "not even at {x}");
                prop_assert!(s.grad(x * 2.0) <= g + 1e-6, "not monotone at {x}");
            }
        }
    }
}
