//! The packed kernel: one pack of up to 64 fault variants swept
//! lane-parallel over the dense suffix of the network.
//!
//! # Shape of a sweep
//!
//! Every fault in a pack sits at the same layer `ℓ` and perturbs exactly
//! one neuron's output column there (a weight fault patches one row of
//! the layer matrix; a neuron fault overrides one neuron's behaviour).
//! The sweep therefore runs in two stages:
//!
//! * **Stage A** — per lane, simulate only the faulty neuron's column at
//!   layer `ℓ` (scalar `f32`, one neuron × `T` ticks). Lanes whose column
//!   equals the golden column are resolved immediately: the fault is
//!   undetected by this test.
//! * **Downstream** — diverged lanes are carried as bit lanes in packed
//!   `u64` spike words through layers `ℓ+1..`. Per layer, a per-tick
//!   [`row_diff_mask`] against the golden input rows finds which lanes
//!   still differ; each such lane is *materialized lazily*: from its
//!   first divergent tick `t0` onward the layer is re-simulated in `f32`
//!   starting from the recorded golden pre-tick state (membrane +
//!   refractory), with the synaptic drive taken from the stored golden
//!   `z` on ticks where the lane's input row is golden and recomputed
//!   via [`lane_row_dot`] otherwise. Lanes whose output reconverges to
//!   the golden rows drop out; at the last layer the divergence scan
//!   *is* the verdict.
//!
//! # Bit-exactness
//!
//! Verdicts must be bit-identical to the scalar engine's (the chunk
//! `verdict_digest` is gated on it):
//!
//! * synaptic drives reuse golden `z` values or recompute them with
//!   [`lane_row_dot`] / [`row_dot`], both bitwise equal to the `matvec`
//!   rows the scalar engine computes (see `snn_tensor::packed`);
//! * every neuron update is `snn_model::LifParams::step`, the function
//!   `run_lif` calls;
//! * the L1 distance over binary spike trains is a diff-bit count — a
//!   sum of exact `1.0`s, so counting bits and converting the integer to
//!   `f32` reproduces the scalar accumulation bitwise (output layers are
//!   far below the 2^24 exactness bound);
//! * per-class spike-count diffs are differences of exact integer-valued
//!   `f32` sums, so signed integer deltas converted to `f32` match —
//!   including `+0.0` for untouched classes, which is what the scalar
//!   `f - b` of bitwise-equal counts produces.

use snn_faults::{
    provably_undetectable, ActivitySummary, Fault, FaultKind, FaultOutcome, FaultSimConfig,
    FaultSite, Injection,
};
use snn_model::{Network, Trace};
use snn_obs::clock::monotonic;
use snn_obs::phase::{LocalPhases, Phase};
use snn_tensor::packed::{broadcast_row, lane_row_dot, row_diff_mask, row_dot, set_lane_bit};
use snn_tensor::Tensor;

use crate::golden::GoldenLayer;
use crate::plan::Pack;

/// Read-only campaign state shared by every pack run.
pub(crate) struct Ctx<'a> {
    pub net: &'a Network,
    pub cfg: FaultSimConfig,
    pub faults: &'a [Fault],
    pub injections: &'a [Injection],
    pub tests: &'a [Tensor],
    pub baselines: &'a [Trace],
    /// Per-test activity summaries; empty unless `cfg.activity_filter`.
    pub activity: &'a [ActivitySummary],
    /// `golden[k][layer - suffix_start]`: golden trajectories per test.
    pub golden: &'a [Vec<GoldenLayer>],
    pub suffix_start: usize,
}

impl Ctx<'_> {
    /// Golden trajectory of `layer` under test `k`.
    fn gold(&self, k: usize, layer: usize) -> &GoldenLayer {
        &self.golden[k][layer - self.suffix_start]
    }

    /// Fault-free input rows of `layer` under test `k` (`[T × in]`).
    fn layer_input(&self, k: usize, layer: usize) -> &[f32] {
        if layer == 0 {
            self.tests[k].as_slice()
        } else {
            self.baselines[k].layers[layer - 1].output.as_slice()
        }
    }
}

/// One lane's running verdict across the campaign's test inputs,
/// mirroring the scalar engine's accumulator exactly (same `> 0.0`
/// detection test, same strict `>` best-distance update, same
/// conditional class-diff recording).
#[derive(Default)]
struct LaneVerdict {
    detected: bool,
    best_distance: f32,
    best_diff: Option<Vec<f32>>,
}

impl LaneVerdict {
    fn update(
        &mut self,
        cfg: &FaultSimConfig,
        distance: f32,
        class_diff: impl FnOnce() -> Vec<f32>,
    ) {
        if distance > 0.0 {
            self.detected = true;
            if distance > self.best_distance {
                self.best_distance = distance;
                if cfg.record_class_diffs {
                    self.best_diff = Some(class_diff());
                }
            }
        }
    }
}

/// Saturating `usize → u64` for metric increments.
fn as_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Exact small-integer conversions: both counts are bounded by the
/// output tensor volume, far below `f32`'s 2^24 integer-exactness bound.
fn count_to_f32(c: u32) -> f32 {
    // snn-lint: allow(L-CAST): diff-bit counts are small exact integers
    c as f32
}

fn delta_to_f32(d: i32) -> f32 {
    // snn-lint: allow(L-CAST): spike-count deltas are small exact integers
    d as f32
}

/// Runs one pack over every test input, returning per-member outcomes in
/// member order. Phase accounting is recorded into a pack-local scratch
/// and folded into the process-wide accumulator via `merge_pack`, which
/// scales *counts* (not nanoseconds) by the lane width so per-fault
/// normalization stays meaningful.
pub(crate) fn run_pack(ctx: &Ctx<'_>, pack: &Pack) -> Vec<FaultOutcome> {
    let mut pack_span = snn_obs::span!("batch.pack");
    pack_span.attr("layer", pack.layer);
    pack_span.attr("lanes", pack.lanes());
    let pack_started = monotonic();
    let mut local = LocalPhases::new();
    let mut verdicts: Vec<LaneVerdict> = Vec::new();
    verdicts.resize_with(pack.members.len(), LaneVerdict::default);

    for k in 0..ctx.tests.len() {
        run_test(ctx, pack, k, &mut verdicts, &mut local);
    }

    let pack_elapsed = monotonic().saturating_sub(pack_started);
    local.add(Phase::Fault, pack_elapsed);
    let members = pack.members.len();
    let detected = verdicts.iter().filter(|v| v.detected).count();
    snn_obs::counter!("snn_batch_packs_total", "Packs executed by the packed engine.").inc();
    snn_obs::counter!("snn_batch_lanes_total", "Fault variants simulated in packed lanes.")
        .add(as_u64(members));
    snn_faults::record_faults_simulated(as_u64(members));
    if detected > 0 {
        snn_faults::record_faults_detected(as_u64(detected));
    }
    snn_obs::histogram!(
        "snn_batch_pack_seconds",
        "Per-pack packed-sweep time.",
        snn_obs::metrics::FINE_DURATION_BUCKETS
    )
    .observe_duration(pack_elapsed);
    snn_obs::phase::faultsim().merge_pack(&local, as_u64(members));
    pack_span.attr("detected", detected);

    pack.members
        .iter()
        .zip(verdicts)
        .map(|(&fi, v)| FaultOutcome {
            fault_id: ctx.faults[fi].id,
            detected: v.detected,
            distance: v.best_distance,
            class_diff: v.best_diff,
        })
        .collect()
}

/// Sweeps the pack under test input `k`.
fn run_test(
    ctx: &Ctx<'_>,
    pack: &Pack,
    k: usize,
    verdicts: &mut [LaneVerdict],
    local: &mut LocalPhases,
) {
    let ell = pack.layer;
    let gl = ctx.gold(k, ell);
    let (steps, n) = (gl.steps, gl.n);
    let num_layers = ctx.net.layers().len();
    let last = ell == num_layers - 1;

    // Stage A: per member, the faulty neuron's output column at layer ℓ.
    // Columns equal to the golden column resolve the lane right here.
    let mut diverged: Vec<(usize, usize, Vec<u8>)> = Vec::new();
    for (i, &fi) in pack.members.iter().enumerate() {
        if ctx.cfg.activity_filter
            && provably_undetectable(ctx.net, &ctx.activity[k], &ctx.faults[fi])
        {
            continue;
        }
        let (q, out) = stage_a(ctx, k, fi, ell, gl, local);
        let compare_started = monotonic();
        let div = (0..steps).any(|t| (out[t] != 0) != gl.spike(t, q));
        local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
        if div {
            diverged.push((i, q, out));
        }
    }
    if diverged.is_empty() {
        return;
    }

    if last {
        // Layer ℓ is the output layer: the faulty output differs from the
        // baseline in column q only, so the column diff is the verdict.
        let compare_started = monotonic();
        for (i, q, out) in &diverged {
            let mut count = 0u32;
            let mut delta = 0i32;
            for (t, bit) in out.iter().enumerate() {
                let lane_bit = *bit != 0;
                if lane_bit != gl.spike(t, *q) {
                    count += 1;
                    delta += if lane_bit { 1 } else { -1 };
                }
            }
            let q = *q;
            verdicts[*i].update(&ctx.cfg, count_to_f32(count), || {
                let mut diff = vec![0.0f32; n];
                diff[q] = delta_to_f32(delta);
                diff
            });
        }
        local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
        return;
    }

    // Pack layer ℓ's output words: golden rows broadcast to every lane,
    // then each diverged lane's column q overridden with its stage-A bits.
    let run_started = monotonic();
    let mut words = vec![0u64; steps * n];
    for t in 0..steps {
        broadcast_row(&gl.out[t * n..(t + 1) * n], &mut words[t * n..(t + 1) * n]);
    }
    let mut live = 0u64;
    for (i, q, out) in &diverged {
        let lane = pack.lane(*i);
        live |= 1u64 << lane;
        for (t, bit) in out.iter().enumerate() {
            set_lane_bit(&mut words[t * n + q], lane, *bit != 0);
        }
    }
    local.add(Phase::PackRun, monotonic().saturating_sub(run_started));

    downstream(ctx, pack, k, words, n, live, verdicts, local);
}

/// Stage A: simulates the single faulty neuron column of member fault
/// `fi` at layer `ell`, returning `(neuron index, per-tick spikes)`.
fn stage_a(
    ctx: &Ctx<'_>,
    k: usize,
    fi: usize,
    ell: usize,
    gl: &GoldenLayer,
    local: &mut LocalPhases,
) -> (usize, Vec<u8>) {
    let fault = &ctx.faults[fi];
    let steps = gl.steps;
    match fault.kind {
        FaultKind::NeuronDead | FaultKind::NeuronSaturated | FaultKind::NeuronTiming { .. } => {
            let FaultSite::Neuron { index, .. } = fault.site else {
                // Injections were realized via for_fault, which rejects
                // site/kind mismatches before any pack runs.
                unreachable!("neuron fault kind on a non-neuron site")
            };
            let forward_started = monotonic();
            let out: Vec<u8> = match fault.kind {
                // Forced behaviours ignore the membrane entirely, exactly
                // like run_lif's forced paths.
                FaultKind::NeuronDead => vec![0u8; steps],
                FaultKind::NeuronSaturated => vec![1u8; steps],
                FaultKind::NeuronTiming { threshold_scale, leak_scale, refrac_delta } => {
                    // The drive is unchanged — only the LIF constants
                    // differ — so the golden z column is reused verbatim.
                    let lif = &crate::dense_layer(ctx.net, ell).lif;
                    let lif = lif.with_timing_fault(threshold_scale, leak_scale, refrac_delta);
                    let (mut carried, mut refrac) = (0.0f32, 0u32);
                    let z = |t: usize| gl.z[t * gl.n + index];
                    (0..steps)
                        .map(|t| u8::from(lif.step(&mut carried, &mut refrac, z(t)).fired))
                        .collect()
                }
                // The outer match arm admits the three neuron kinds only.
                _ => unreachable!(),
            };
            local.add_forward(ell, monotonic().saturating_sub(forward_started));
            (index, out)
        }
        _ => {
            let Injection::Weight { at, value } = &ctx.injections[fi] else {
                // Injections were realized via for_fault, which rejects
                // site/kind mismatches before any pack runs.
                unreachable!("synapse fault kind without a weight injection")
            };
            let inject_started = monotonic();
            let layer = crate::dense_layer(ctx.net, ell);
            let cols = layer.weight.shape().dim(1);
            let q = at.offset / cols;
            let c = at.offset % cols;
            let wd = layer.weight.as_slice();
            let mut patched = wd[q * cols..(q + 1) * cols].to_vec();
            patched[c] = *value;
            let forward_started = monotonic();
            local.add(Phase::Inject, forward_started.saturating_sub(inject_started));
            let x = ctx.layer_input(k, ell);
            let (mut carried, mut refrac) = (0.0f32, 0u32);
            let out: Vec<u8> = (0..steps)
                .map(|t| {
                    // z reuse: when input feature c carries no traffic
                    // this tick, the old and new products at c are both
                    // exact zeroes, which never change the accumulator
                    // (see snn_tensor::packed), so the patched row's dot
                    // product is bitwise the stored golden drive. This
                    // also covers fractional (pooled) inputs — an average
                    // of zero spikes is exactly +0.0.
                    // snn-lint: allow(L-FLOATEQ): exact-zero traffic test; spikes and their averages are exact values
                    let z = if x[t * cols + c] != 0.0 {
                        row_dot(&patched, &x[t * cols..(t + 1) * cols])
                    } else {
                        gl.z[t * gl.n + q]
                    };
                    u8::from(layer.lif.step(&mut carried, &mut refrac, z).fired)
                })
                .collect();
            local.add_forward(ell, monotonic().saturating_sub(forward_started));
            (q, out)
        }
    }
}

/// Carries diverged lanes through layers `ell+1..`, materializing lanes
/// lazily and resolving verdicts at the last layer.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, never public
fn downstream(
    ctx: &Ctx<'_>,
    pack: &Pack,
    k: usize,
    mut words: Vec<u64>,
    mut n_in: usize,
    mut live: u64,
    verdicts: &mut [LaneVerdict],
    local: &mut LocalPhases,
) {
    let num_layers = ctx.net.layers().len();
    let member_shift = usize::from(pack.golden_lane);

    for d in pack.layer + 1..num_layers {
        let gin = ctx.gold(k, d - 1);
        let gd = ctx.gold(k, d);
        let steps = gd.steps;
        debug_assert_eq!(gin.n, n_in);

        // Which lanes' inputs to layer d differ from the golden rows, and
        // at which ticks. Lanes with no divergent tick reconverged at the
        // previous layer — their remaining suffix is provably golden.
        let compare_started = monotonic();
        let mut diffmask = vec![0u64; steps];
        let mut union = 0u64;
        for (t, mask) in diffmask.iter_mut().enumerate() {
            *mask = row_diff_mask(
                &words[t * n_in..(t + 1) * n_in],
                &gin.out[t * n_in..(t + 1) * n_in],
                live,
            );
            union |= *mask;
        }
        if pack.golden_lane {
            debug_assert_eq!(union & 1, 0, "golden self-check lane diverged");
        }
        local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
        live = union;
        if live == 0 {
            return;
        }

        let layer = crate::dense_layer(ctx.net, d);
        let n_d = gd.n;
        let last = d == num_layers - 1;

        let mut words_out = Vec::new();
        if !last {
            let run_started = monotonic();
            words_out = vec![0u64; steps * n_d];
            for t in 0..steps {
                broadcast_row(
                    &gd.out[t * n_d..(t + 1) * n_d],
                    &mut words_out[t * n_d..(t + 1) * n_d],
                );
            }
            local.add(Phase::PackRun, monotonic().saturating_sub(run_started));
        }

        // out_buf is reused across lanes; rows before a lane's t0 are
        // stale, and every consumer below only reads t0.. rows.
        let mut out_buf = vec![0u8; steps * n_d];
        let mut next_live = 0u64;
        let mut rest = live;
        while rest != 0 {
            let lane = rest.trailing_zeros();
            rest &= rest - 1;
            let member = lane as usize - member_shift;
            let t0 = diffmask
                .iter()
                .position(|m| (m >> lane) & 1 == 1)
                // snn-lint: allow(L-PANIC): lane is live, so some diffmask bit is set
                .expect("live lane has a divergent tick");
            materialize_lane(layer, gd, &words, n_in, lane, t0, &diffmask, &mut out_buf, local, d);

            if last {
                let compare_started = monotonic();
                let mut count = 0u32;
                let mut delta = vec![0i32; n_d];
                for t in t0..steps {
                    for (q, dq) in delta.iter_mut().enumerate() {
                        let lane_bit = out_buf[t * n_d + q] != 0;
                        if lane_bit != gd.spike(t, q) {
                            count += 1;
                            *dq += if lane_bit { 1 } else { -1 };
                        }
                    }
                }
                verdicts[member].update(&ctx.cfg, count_to_f32(count), || {
                    delta.iter().map(|&x| delta_to_f32(x)).collect()
                });
                local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
            } else {
                let run_started = monotonic();
                let mut lane_diverged = false;
                for t in t0..steps {
                    for q in 0..n_d {
                        let on = out_buf[t * n_d + q] != 0;
                        set_lane_bit(&mut words_out[t * n_d + q], lane, on);
                        lane_diverged |= on != gd.spike(t, q);
                    }
                }
                if lane_diverged {
                    next_live |= 1u64 << lane;
                }
                local.add(Phase::PackRun, monotonic().saturating_sub(run_started));
            }
        }

        if last {
            return;
        }
        live = next_live;
        if live == 0 {
            return;
        }
        words = words_out;
        n_in = n_d;
    }
}

/// Materializes one lane through layer `d` from its first divergent
/// input tick `t0`: before `t0` the lane's input rows are golden, so its
/// state *entering* `t0` is exactly the recorded golden pre-tick state
/// (see `golden.rs`). Drives come from the stored golden `z` on
/// non-divergent ticks and [`lane_row_dot`] otherwise; neurons advance by
/// [`snn_model::LifParams::step`]. Output spikes land in `out_buf[t0.. ]` rows.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, never public
fn materialize_lane(
    layer: &snn_model::DenseLayer,
    gd: &GoldenLayer,
    words_in: &[u64],
    n_in: usize,
    lane: u32,
    t0: usize,
    diffmask: &[u64],
    out_buf: &mut [u8],
    local: &mut LocalPhases,
    d: usize,
) {
    let forward_started = monotonic();
    let n = gd.n;
    let steps = gd.steps;
    let wd = layer.weight.as_slice();
    let lif = &layer.lif;
    let mut carried = gd.carried_pre[t0 * n..(t0 + 1) * n].to_vec();
    let mut refrac = gd.refrac_pre[t0 * n..(t0 + 1) * n].to_vec();
    let mut z = vec![0.0f32; n];
    for t in t0..steps {
        if (diffmask[t] >> lane) & 1 == 1 {
            let row_words = &words_in[t * n_in..(t + 1) * n_in];
            for (q, zq) in z.iter_mut().enumerate() {
                *zq = lane_row_dot(&wd[q * n_in..(q + 1) * n_in], row_words, lane);
            }
        } else {
            // The lane's input row is golden this tick, so its drive is
            // the golden drive — bitwise (same matvec over same spikes).
            z.copy_from_slice(&gd.z[t * n..(t + 1) * n]);
        }
        let out_row = &mut out_buf[t * n..(t + 1) * n];
        for q in 0..n {
            out_row[q] = u8::from(lif.step(&mut carried[q], &mut refrac[q], z[q]).fired);
        }
    }
    local.add_forward(d, monotonic().saturating_sub(forward_started));
}
