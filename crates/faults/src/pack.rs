//! The packed kernel: one pack of up to 64 fault variants swept
//! lane-parallel over the packable suffix of the network — its trailing
//! run of dense and recurrent layers.
//!
//! # Shape of a sweep
//!
//! Every fault in a pack sits at the same layer `ℓ` and perturbs exactly
//! one neuron `q` there (a weight fault patches one row of a weight
//! matrix — `W`, `W_in` or `W_rec`; a neuron fault overrides one neuron's
//! behaviour). The sweep therefore runs in stages:
//!
//! * **Stage A** — per lane, simulate only the faulty neuron `q` at
//!   layer `ℓ` (scalar `f32`, one neuron), on golden drives except where
//!   the patched row meets an active input. Lanes whose spikes never
//!   leave the golden column are resolved immediately: the fault is
//!   undetected by this test. At a dense layer the other neurons never
//!   see `q`, so `q`'s faulty column *is* the layer's faulty output. At a
//!   recurrent layer stage A stops at `q`'s first spike divergence `t0`:
//!   from `t0 + 1` on, `q`'s spikes feed back into every neuron.
//! * **Fault-layer materialization** (recurrent `ℓ` only) — the diverged
//!   lane's whole layer is re-simulated from `t0`: every other neuron
//!   from the golden pre-tick state, `q` from the state stage A reached
//!   (its membrane may have drifted ticks before its spikes did).
//! * **Downstream** — diverged lanes are carried as bit lanes in packed
//!   `u64` spike words through layers `ℓ+1..`. Per layer, a per-tick
//!   [`row_diff_mask`] against the golden input rows finds which lanes
//!   still differ; each such lane is *materialized lazily*: from its
//!   first divergent tick `t0` onward the layer is re-simulated in `f32`
//!   starting from the recorded golden pre-tick state. Lanes whose output
//!   reconverges to the golden rows drop out; at the last layer the
//!   divergence scan *is* the verdict.
//!
//! Both materializations are one function, [`materialize`]: the
//! feed-forward drive is the stored golden `z_in` on ticks where the
//! lane's input row is golden and [`lane_row_dot`] otherwise; on a
//! recurrent layer the feedback drive is the stored golden `z_rec` while
//! the lane's previous output row is golden and [`row_dot`] over that
//! row otherwise. A dense layer is the case without feedback.
//!
//! # Bit-exactness
//!
//! Verdicts must be bit-identical to the scalar engine's (the chunk
//! `verdict_digest` is gated on it):
//!
//! * synaptic drives reuse golden `z_in`/`z_rec` values or recompute them
//!   with [`lane_row_dot`] / [`row_dot`], both bitwise equal to the
//!   `matvec` rows the scalar engine computes (see `snn_tensor::packed`),
//!   and the two parts are summed by the scalar engine's own rule
//!   (`golden::drive`: `z_in + z_rec`, feed-forward alone at tick 0);
//! * every neuron update is `snn_model::LifParams::step`, the function
//!   `run_lif` calls, from the state the scalar run holds at that tick —
//!   the golden pre-state for neurons that have not diverged yet, the
//!   stage-A state for the faulty neuron;
//! * the L1 distance over binary spike trains is a diff-bit count — a
//!   sum of exact `1.0`s, so counting bits and converting the integer to
//!   `f32` reproduces the scalar accumulation bitwise (output layers are
//!   far below the 2^24 exactness bound);
//! * per-class spike-count diffs are differences of exact integer-valued
//!   `f32` sums, so signed integer deltas converted to `f32` match —
//!   including `+0.0` for untouched classes, which is what the scalar
//!   `f - b` of bitwise-equal counts produces.

use crate::sim::{
    as_u64, provably_undetectable, record_faults_detected, record_faults_simulated, ActivitySummary,
};
use crate::{Fault, FaultKind, FaultOutcome, FaultSimConfig, FaultSite, Injection};
use snn_model::{LifParams, Network, Trace};
use snn_obs::clock::monotonic;
use snn_obs::phase::{LocalPhases, Phase};
use snn_tensor::packed::{broadcast_row, lane_row_dot, row_diff_mask, row_dot, set_lane_bit};
use snn_tensor::Tensor;

use crate::golden::{drive, GoldenLayer};
use crate::plan::{suffix_layer, Pack, SuffixLayer};

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

/// How a member's faulty neuron departs from the golden neuron.
enum Departure {
    /// Never fires; the membrane is untouched (`run_lif`'s forced path).
    Dead,
    /// Fires every tick; the membrane is untouched.
    Saturated,
    /// Integrates the golden drive with faulty LIF constants.
    Timing(LifParams),
    /// Integrates with one weight patched.
    Row(PatchedRow),
}

/// The faulty neuron's row of the feed-forward matrix (`W` / `W_in`), or
/// of `W_rec` when `feedback`, with column `c` replaced by the faulty
/// value.
struct PatchedRow {
    feedback: bool,
    c: usize,
    row: Vec<f32>,
}

impl PatchedRow {
    /// The neuron's drive at tick `t`, from its drive parts under the
    /// unpatched weights. `x` is the layer's input row at `t`, `prev` the
    /// lane's own output row at `t − 1` (read only on recurrent layers
    /// from tick 1 on).
    ///
    /// The patched row changes the drive only when its patched column
    /// carries traffic: otherwise the old and new products at `c` are
    /// both exact zeroes, which never change the accumulator (see
    /// `snn_tensor::packed`), so the unpatched part is bitwise the
    /// patched one. This also covers fractional (pooled) inputs — an
    /// average of zero spikes is exactly `+0.0`.
    fn drive(
        &self,
        recurrent: bool,
        t: usize,
        x: &[f32],
        prev: &[f32],
        mut z_in: f32,
        mut z_rec: f32,
    ) -> f32 {
        let (c, row) = (self.c, &self.row);
        // snn-lint: allow(L-FLOATEQ): exact-zero traffic test; spikes and their averages are exact values
        let carries = |v: f32| v != 0.0;
        if !self.feedback && carries(x[c]) {
            z_in = row_dot(row, x);
        } else if self.feedback && t > 0 && carries(prev[c]) {
            z_rec = row_dot(row, prev);
        }
        drive(recurrent, t, z_in, z_rec)
    }
}

/// The neuron a pack member's fault perturbs, and how.
struct FaultyNeuron {
    q: usize,
    departure: Departure,
}

impl FaultyNeuron {
    fn new(ctx: &Ctx<'_>, fi: usize, ell: usize) -> Self {
        let fault = &ctx.faults[fi];
        let layer = suffix_layer(ctx.net, ell);
        let neuron = || match fault.site {
            FaultSite::Neuron { index, .. } => index,
            // Injections were realized via for_fault, which rejects
            // site/kind mismatches before any pack runs.
            FaultSite::Synapse(_) => unreachable!("neuron fault kind on a non-neuron site"),
        };
        match fault.kind {
            FaultKind::NeuronDead => Self { q: neuron(), departure: Departure::Dead },
            FaultKind::NeuronSaturated => Self { q: neuron(), departure: Departure::Saturated },
            FaultKind::NeuronTiming { threshold_scale, leak_scale, refrac_delta } => {
                let faulty = layer.lif.with_timing_fault(threshold_scale, leak_scale, refrac_delta);
                Self { q: neuron(), departure: Departure::Timing(faulty) }
            }
            _ => {
                let Injection::Weight { at, value } = &ctx.injections[fi] else {
                    // Injections were realized via for_fault, which rejects
                    // site/kind mismatches before any pack runs.
                    unreachable!("synapse fault kind without a weight injection")
                };
                let (feedback, weight) = match (at.tensor, layer.w_rec) {
                    (0, _) => (false, layer.w_in),
                    (1, Some(w_rec)) => (true, w_rec),
                    _ => unreachable!("weight fault on tensor {} of layer {ell}", at.tensor),
                };
                let cols = weight.shape().dim(1);
                let (q, c) = (at.offset / cols, at.offset % cols);
                let mut row = weight.as_slice()[q * cols..(q + 1) * cols].to_vec();
                row[c] = *value;
                Self { q, departure: Departure::Row(PatchedRow { feedback, c, row }) }
            }
        }
    }

    /// The neuron's faulty drive at tick `t` (see [`PatchedRow::drive`]).
    fn drive(
        &self,
        recurrent: bool,
        t: usize,
        x: &[f32],
        prev: &[f32],
        z_in: f32,
        z_rec: f32,
    ) -> f32 {
        match &self.departure {
            Departure::Row(patch) => patch.drive(recurrent, t, x, prev, z_in, z_rec),
            _ => drive(recurrent, t, z_in, z_rec),
        }
    }

    /// Advances the neuron by one tick on drive `z`; `true` when it fires.
    fn fire(&self, lif: &LifParams, carried: &mut f32, refrac: &mut u32, z: f32) -> bool {
        match &self.departure {
            Departure::Dead => false,
            Departure::Saturated => true,
            Departure::Timing(faulty) => faulty.step(carried, refrac, z).fired,
            Departure::Row(_) => lif.step(carried, refrac, z).fired,
        }
    }
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
    record_faults_simulated(as_u64(members));
    if detected > 0 {
        record_faults_detected(as_u64(detected));
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
    let layer = suffix_layer(ctx.net, ell);
    let x = ctx.layer_input(k, ell);
    let last = ell == ctx.net.layers().len() - 1;

    let mut settle = Settle::new(gl, last);
    let mut columns = Vec::new();
    for (i, &fi) in pack.members.iter().enumerate() {
        if ctx.cfg.activity_filter
            && provably_undetectable(ctx.net, &ctx.activity[k], &ctx.faults[fi])
        {
            continue;
        }
        let lane = pack.lane(i);
        let inject_started = monotonic();
        let faulty = FaultyNeuron::new(ctx, fi, ell);
        local.add(Phase::Inject, monotonic().saturating_sub(inject_started));
        match stage_a(&layer, gl, x, &faulty, ell, local) {
            StageA::Golden => {}
            StageA::Column(column) => columns.push((lane, i, faulty.q, column)),
            StageA::Diverged { t0, carried, refrac } => {
                let over = Override { faulty: &faulty, x, carried, refrac };
                materialize(&layer, gl, None, Some(&over), lane, t0, &mut settle.buf, local, ell);
                settle.lane(&ctx.cfg, lane, i, t0, verdicts, local);
            }
        }
    }
    if !columns.is_empty() {
        settle.columns(&ctx.cfg, &columns, verdicts, local);
    }
    if !last && settle.live != 0 {
        downstream(ctx, pack, k, settle.words, settle.live, verdicts, local);
    }
}

/// What stage A learned about one member under one test.
enum StageA {
    /// The faulty neuron's spikes equal the golden ones: this test does
    /// not detect the fault.
    Golden,
    /// Dense fault layer: the faulty neuron's whole spike column (the
    /// rest of the layer's output is golden).
    Column(Vec<u8>),
    /// Recurrent fault layer: the faulty neuron's spikes first differ at
    /// `t0`, which it enters with this state.
    Diverged { t0: usize, carried: f32, refrac: u32 },
}

/// Stage A: simulates the faulty neuron alone at layer `ell`, on golden
/// inputs and (at a recurrent layer, before its first divergence)
/// golden feedback.
fn stage_a(
    layer: &SuffixLayer<'_>,
    gl: &GoldenLayer,
    x: &[f32],
    faulty: &FaultyNeuron,
    ell: usize,
    local: &mut LocalPhases,
) -> StageA {
    let forward_started = monotonic();
    let q = faulty.q;
    let cols = layer.w_in.shape().dim(1);
    let recurrent = gl.recurrent();
    // Every input the neuron sees here is golden: the layer input, and
    // (up to its first divergence) the feedback row.
    let outcome = match &faulty.departure {
        Departure::Dead => forced_alone(gl, q, false),
        Departure::Saturated => forced_alone(gl, q, true),
        Departure::Timing(lif) => step_alone(gl, q, lif, |t| gl.drive_at(t, q)),
        Departure::Row(patch) => step_alone(gl, q, layer.lif, |t| {
            let prev = if recurrent && t > 0 { gl.row(t - 1) } else { &[] };
            let (z_in, z_rec) = gl.parts(t, q);
            patch.drive(recurrent, t, &x[t * cols..(t + 1) * cols], prev, z_in, z_rec)
        }),
    };
    local.add_forward(ell, monotonic().saturating_sub(forward_started));
    outcome
}

/// Steps neuron `q` alone from rest on drives `z(t)`, against the golden
/// spikes of `q`.
fn step_alone(gl: &GoldenLayer, q: usize, lif: &LifParams, z: impl Fn(usize) -> f32) -> StageA {
    let (mut carried, mut refrac) = (0.0f32, 0u32);
    let mut column = vec![0u8; gl.steps];
    let mut diverged = false;
    for (t, bit) in column.iter_mut().enumerate() {
        let (carried_pre, refrac_pre) = (carried, refrac);
        let fired = lif.step(&mut carried, &mut refrac, z(t)).fired;
        if fired != gl.spike(t, q) {
            if gl.recurrent() {
                return StageA::Diverged { t0: t, carried: carried_pre, refrac: refrac_pre };
            }
            diverged = true;
        }
        *bit = u8::from(fired);
    }
    if diverged {
        StageA::Column(column)
    } else {
        StageA::Golden
    }
}

/// Neuron `q` forced to fire always (`on`) or never: it never integrates,
/// so it stays at rest.
fn forced_alone(gl: &GoldenLayer, q: usize, on: bool) -> StageA {
    match (0..gl.steps).find(|&t| gl.spike(t, q) != on) {
        None => StageA::Golden,
        Some(t0) if gl.recurrent() => StageA::Diverged { t0, carried: 0.0, refrac: 0 },
        Some(_) => StageA::Column(vec![u8::from(on); gl.steps]),
    }
}

/// Carries diverged lanes through layers `ell+1..`, materializing lanes
/// lazily and resolving verdicts at the last layer.
fn downstream(
    ctx: &Ctx<'_>,
    pack: &Pack,
    k: usize,
    mut words: Vec<u64>,
    mut live: u64,
    verdicts: &mut [LaneVerdict],
    local: &mut LocalPhases,
) {
    let num_layers = ctx.net.layers().len();
    let member_shift = usize::from(pack.golden_lane);

    for d in pack.layer + 1..num_layers {
        let gin = ctx.gold(k, d - 1);
        let gd = ctx.gold(k, d);
        let (steps, n_in) = (gd.steps, gin.n);

        // Which lanes' inputs to layer d differ from the golden rows, and
        // at which ticks. Lanes with no divergent tick reconverged at the
        // previous layer — their remaining suffix is provably golden.
        let compare_started = monotonic();
        let mut diffmask = vec![0u64; steps];
        let mut union = 0u64;
        for (t, mask) in diffmask.iter_mut().enumerate() {
            *mask = row_diff_mask(&words[t * n_in..(t + 1) * n_in], gin.row(t), live);
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

        let layer = suffix_layer(ctx.net, d);
        let last = d == num_layers - 1;
        let input = LaneInput { words: &words, n_in, diffmask: &diffmask };
        let mut settle = Settle::new(gd, last);
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
            materialize(&layer, gd, Some(&input), None, lane, t0, &mut settle.buf, local, d);
            settle.lane(&ctx.cfg, lane, member, t0, verdicts, local);
        }

        if last || settle.live == 0 {
            return;
        }
        live = settle.live;
        words = settle.words;
    }
}

/// Where one layer's diverged lanes go: at the output layer into their
/// verdicts, elsewhere into the packed spike words the next layer reads.
struct Settle<'g> {
    gd: &'g GoldenLayer,
    last: bool,
    /// Packed output words `[T × n]`: golden rows broadcast to every
    /// lane, diverged lanes' rows overwritten. Built on the first lane
    /// that needs it; unused at the output layer.
    words: Vec<u64>,
    /// Lanes whose output differs from the golden rows.
    live: u64,
    /// One materialized lane's output rows `[T × n]`, reused across
    /// lanes: rows before a lane's `t0` are stale, and only `t0..` rows
    /// are read.
    buf: Vec<u8>,
}

impl<'g> Settle<'g> {
    fn new(gd: &'g GoldenLayer, last: bool) -> Self {
        Self { gd, last, words: Vec::new(), live: 0, buf: vec![0u8; gd.steps * gd.n] }
    }

    /// The packed output words, broadcast from the golden rows on first
    /// use.
    fn words(&mut self) -> &mut [u64] {
        if self.words.is_empty() {
            let gd = self.gd;
            self.words = vec![0u64; gd.steps * gd.n];
            for t in 0..gd.steps {
                broadcast_row(gd.row(t), &mut self.words[t * gd.n..(t + 1) * gd.n]);
            }
        }
        &mut self.words
    }

    /// Settles a dense fault layer's diverged lanes `(lane, member, q,
    /// column)`, each differing from the golden rows in neuron `q`'s
    /// column only.
    fn columns(
        &mut self,
        cfg: &FaultSimConfig,
        columns: &[(u32, usize, usize, Vec<u8>)],
        verdicts: &mut [LaneVerdict],
        local: &mut LocalPhases,
    ) {
        let started = monotonic();
        let n = self.gd.n;
        for (lane, member, q, column) in columns {
            let (lane, q) = (*lane, *q);
            if self.last {
                let mut count = 0u32;
                let mut delta = 0i32;
                for (t, &bit) in column.iter().enumerate() {
                    let lane_bit = bit != 0;
                    if lane_bit != self.gd.spike(t, q) {
                        count += 1;
                        delta += if lane_bit { 1 } else { -1 };
                    }
                }
                verdicts[*member].update(cfg, count_to_f32(count), || {
                    let mut diff = vec![0.0f32; n];
                    diff[q] = delta_to_f32(delta);
                    diff
                });
            } else {
                let words = self.words();
                for (t, &bit) in column.iter().enumerate() {
                    set_lane_bit(&mut words[t * n + q], lane, bit != 0);
                }
                self.live |= 1u64 << lane;
            }
        }
        let phase = if self.last { Phase::Compare } else { Phase::PackRun };
        local.add(phase, monotonic().saturating_sub(started));
    }

    /// Settles a lane materialized from `t0` into `self.buf`.
    fn lane(
        &mut self,
        cfg: &FaultSimConfig,
        lane: u32,
        member: usize,
        t0: usize,
        verdicts: &mut [LaneVerdict],
        local: &mut LocalPhases,
    ) {
        let (gd, n) = (self.gd, self.gd.n);
        if self.last {
            let compare_started = monotonic();
            let mut count = 0u32;
            let mut delta = vec![0i32; n];
            for t in t0..gd.steps {
                for (q, dq) in delta.iter_mut().enumerate() {
                    let lane_bit = self.buf[t * n + q] != 0;
                    if lane_bit != gd.spike(t, q) {
                        count += 1;
                        *dq += if lane_bit { 1 } else { -1 };
                    }
                }
            }
            verdicts[member].update(cfg, count_to_f32(count), || {
                delta.iter().map(|&x| delta_to_f32(x)).collect()
            });
            local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
        } else {
            let run_started = monotonic();
            self.words();
            let mut lane_diverged = false;
            for t in t0..gd.steps {
                for q in 0..n {
                    let on = self.buf[t * n + q] != 0;
                    set_lane_bit(&mut self.words[t * n + q], lane, on);
                    lane_diverged |= on != gd.spike(t, q);
                }
            }
            if lane_diverged {
                self.live |= 1u64 << lane;
            }
            local.add(Phase::PackRun, monotonic().saturating_sub(run_started));
        }
    }
}

/// A lane's layer input downstream of the fault layer: packed spike
/// words `[T × n_in]` and, per tick, the lanes whose input row differs
/// from the golden row.
struct LaneInput<'a> {
    words: &'a [u64],
    n_in: usize,
    diffmask: &'a [u64],
}

/// The faulty neuron of a recurrent fault layer, entering the
/// materialization's first tick with the state stage A left it in.
struct Override<'a> {
    faulty: &'a FaultyNeuron,
    /// The fault layer's golden input, `[T × in]`.
    x: &'a [f32],
    carried: f32,
    refrac: u32,
}

/// Materializes one lane through layer `d` from tick `t0`, writing its
/// output spikes into rows `t0..` of `out`.
///
/// Before `t0` the lane evolved exactly like the golden run, so every
/// neuron enters `t0` in its recorded golden pre-tick state (see
/// `golden.rs`) — except the fault layer's faulty neuron (`over`), which
/// enters it in the state stage A reached. The feed-forward drive is the
/// stored golden `z_in` on ticks where the lane's input row is golden
/// (always, at the fault layer: `input` is `None`) and [`lane_row_dot`]
/// otherwise. On a recurrent layer the feedback drive is the stored
/// golden `z_rec` while the lane's previous output row is golden and
/// [`row_dot`] over that row otherwise. Neurons advance by
/// [`snn_model::LifParams::step`].
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, never public
fn materialize(
    layer: &SuffixLayer<'_>,
    gd: &GoldenLayer,
    input: Option<&LaneInput<'_>>,
    over: Option<&Override<'_>>,
    lane: u32,
    t0: usize,
    out: &mut [u8],
    local: &mut LocalPhases,
    d: usize,
) {
    let forward_started = monotonic();
    let (n, steps) = (gd.n, gd.steps);
    let recurrent = gd.recurrent();
    let w_in = layer.w_in.as_slice();
    let cols = layer.w_in.shape().dim(1);
    let lif = layer.lif;
    let mut carried = gd.carried_pre[t0 * n..(t0 + 1) * n].to_vec();
    let mut refrac = gd.refrac_pre[t0 * n..(t0 + 1) * n].to_vec();
    // The faulty neuron steps apart from the others; `q == n` when the
    // layer has none.
    let q = over.map_or(n, |o| o.faulty.q);
    if let Some(o) = over {
        carried[q] = o.carried;
        refrac[q] = o.refrac;
    }
    let mut z_in = vec![0.0f32; n];
    let mut z_rec = vec![0.0f32; n];
    // The lane's own previous output row (recurrent layers only).
    let mut prev = vec![0.0f32; if recurrent { n } else { 0 }];
    if recurrent && t0 > 0 {
        prev.copy_from_slice(gd.row(t0 - 1));
    }
    let mut prev_golden = true;
    for t in t0..steps {
        match input {
            Some(inp) if (inp.diffmask[t] >> lane) & 1 == 1 => {
                let row_words = &inp.words[t * inp.n_in..(t + 1) * inp.n_in];
                for (i, zi) in z_in.iter_mut().enumerate() {
                    *zi = lane_row_dot(&w_in[i * cols..(i + 1) * cols], row_words, lane);
                }
            }
            // The lane's input row is golden this tick, so its drive is
            // the golden drive — bitwise (same matvec over same spikes).
            _ => z_in.copy_from_slice(&gd.z_in[t * n..(t + 1) * n]),
        }
        if let (Some(w_rec), true) = (layer.w_rec, t > 0) {
            if prev_golden {
                z_rec.copy_from_slice(&gd.z_rec[t * n..(t + 1) * n]);
            } else {
                let wr = w_rec.as_slice();
                for (i, zi) in z_rec.iter_mut().enumerate() {
                    *zi = row_dot(&wr[i * n..(i + 1) * n], &prev);
                }
            }
        }
        // The faulty neuron's drive, from its parts before they are summed.
        let faulty_z = over.map(|o| {
            let x = &o.x[t * cols..(t + 1) * cols];
            o.faulty.drive(recurrent, t, x, &prev, z_in[q], z_rec[q])
        });
        if recurrent {
            for (zi, &zr) in z_in.iter_mut().zip(z_rec.iter()) {
                *zi = drive(true, t, *zi, zr);
            }
        }
        let out_row = &mut out[t * n..(t + 1) * n];
        let r = (q + 1).min(n);
        step_neurons(lif, &z_in[..q], &mut carried[..q], &mut refrac[..q], &mut out_row[..q]);
        step_neurons(lif, &z_in[r..], &mut carried[r..], &mut refrac[r..], &mut out_row[r..]);
        if let (Some(o), Some(z)) = (over, faulty_z) {
            out_row[q] = u8::from(o.faulty.fire(lif, &mut carried[q], &mut refrac[q], z));
        }
        if recurrent {
            prev_golden = true;
            for (i, p) in prev.iter_mut().enumerate() {
                let on = out_row[i] != 0;
                *p = f32::from(u8::from(on));
                prev_golden &= on == gd.spike(t, i);
            }
        }
    }
    local.add_forward(d, monotonic().saturating_sub(forward_started));
}

/// Advances neurons `i` by one tick on drives `z[i]`, writing their
/// spikes: the plain `run_lif` update, over slices whose equal lengths
/// keep the loop free of bounds checks.
fn step_neurons(
    lif: &LifParams,
    z: &[f32],
    carried: &mut [f32],
    refrac: &mut [u32],
    out: &mut [u8],
) {
    let neurons = out.iter_mut().zip(z).zip(carried.iter_mut().zip(refrac.iter_mut()));
    for ((o, &z), (c, r)) in neurons {
        *o = u8::from(lif.step(c, r, z).fired);
    }
}
