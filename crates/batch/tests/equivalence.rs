//! Satellite property: the packed engine is bit-identical to the scalar
//! engine — per-fault detection flags, distances, class diffs and the
//! FNV-1a [`verdict_digest`] match across fault kinds (weight / neuron /
//! timing / bit-range), pack sizes {1, 7, 64}, remainder packs (universe
//! size not a multiple of 64), collapsed universes, and packable suffixes
//! with recurrent layers (recurrent → dense, dense → recurrent → dense,
//! a recurrent output layer); plus hand-built cases: a lane-divergence
//! test where exactly one lane's membrane crosses threshold, and
//! recurrent fault layers where the faulty neuron's membrane drifts
//! ticks before its spikes do.

#![allow(clippy::unwrap_used)] // test-only shorthand

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_faults::{
    plan, verdict_digest, CampaignOutcome, CancelToken, Engine, Fault, FaultKind, FaultModelConfig,
    FaultSimConfig, FaultSimulator, FaultSite, FaultUniverse, NullSink,
};
use snn_model::{LifParams, Network, NetworkBuilder, WeightRef};
use snn_obs::phase::LocalPhases;
use snn_tensor::{Shape, Tensor};

fn dense_net(seed: u64, inputs: usize, hidden: usize, outputs: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new(inputs, LifParams { refrac_steps: 1, ..LifParams::default() })
        .dense(hidden)
        .dense(outputs)
        .build(&mut rng)
}

/// Packable suffixes with a recurrent layer: recurrent → dense
/// (SHD-shaped), dense → recurrent → dense (a recurrent layer downstream
/// of the fault layer) and dense → recurrent (a recurrent output layer).
fn recurrent_net(shape: usize, seed: u64, inputs: usize, hidden: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = NetworkBuilder::new(inputs, LifParams { refrac_steps: 1, ..LifParams::default() });
    match shape {
        0 => b.recurrent(hidden).dense(4),
        1 => b.dense(hidden).recurrent(hidden).dense(4),
        _ => b.dense(hidden).recurrent(4),
    }
    .build(&mut rng)
}

fn tests_for(net: &Network, seed: u64, count: usize) -> Vec<Tensor> {
    tests_of_len(net, seed, count, 16)
}

fn tests_of_len(net: &Network, seed: u64, count: usize, steps: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(steps, net.input_features()), 0.4))
        .collect()
}

/// Class diffs recorded, activity filter on (the default).
fn cfg_for(engine: Engine) -> FaultSimConfig {
    FaultSimConfig {
        threads: 1,
        engine: Some(engine),
        record_class_diffs: true,
        activity_filter: true,
        ..FaultSimConfig::default()
    }
}

fn run(
    net: &Network,
    engine: Engine,
    u: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
) -> CampaignOutcome {
    FaultSimulator::new(net, cfg_for(engine)).detect(u, faults, tests)
}

/// The bitwise contract: same fault ids, same detection flags, same
/// `f32` distances *to the bit*, same class diffs, same digest.
fn assert_bit_identical(scalar: &CampaignOutcome, packed: &CampaignOutcome) {
    assert_eq!(scalar.per_fault.len(), packed.per_fault.len());
    for (s, p) in scalar.per_fault.iter().zip(packed.per_fault.iter()) {
        assert_eq!(s.fault_id, p.fault_id);
        assert_eq!(s.detected, p.detected, "fault {}", s.fault_id);
        assert_eq!(s.distance.to_bits(), p.distance.to_bits(), "fault {}", s.fault_id);
        assert_eq!(s.class_diff, p.class_diff, "fault {}", s.fault_id);
    }
    assert_eq!(verdict_digest(&scalar.per_fault), verdict_digest(&packed.per_fault));
}

fn assert_engines_agree_on(
    net: &Network,
    u: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
) -> CampaignOutcome {
    let scalar = run(net, Engine::Scalar, u, faults, tests);
    let packed = run(net, Engine::Packed, u, faults, tests);
    assert_bit_identical(&scalar, &packed);
    packed
}

/// The universe of `net` with timing and bit-range faults alongside the
/// standard weight/neuron kinds.
fn extended_universe(net: &Network) -> FaultUniverse {
    FaultUniverse::with_config(net, FaultModelConfig::default(), true, &[0, 3, 7])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random dense nets, full extended universes (timing + bit-range
    /// faults alongside the standard weight/neuron kinds): identical
    /// verdicts bit-for-bit under both engines.
    #[test]
    fn packed_matches_scalar_over_random_extended_universes(
        seed in 0u64..1000,
        hidden in 6usize..12,
        timing in proptest::bool::ANY,
    ) {
        let net = dense_net(seed, 5, hidden, 4);
        let u = FaultUniverse::with_config(
            &net,
            FaultModelConfig::default(),
            timing,
            &[0, 3, 7],
        );
        let tests = tests_for(&net, seed ^ 0xbeef, 2);
        assert_engines_agree_on(&net, &u, u.faults(), &tests);
    }

    /// Random nets whose packable suffix holds a recurrent layer, full
    /// extended universes: every fault packs (no scalar fallback), and
    /// verdicts are identical bit-for-bit under both engines.
    #[test]
    fn packed_matches_scalar_over_recurrent_suffixes(
        seed in 0u64..1000,
        shape in 0usize..3,
        hidden in 6usize..12,
    ) {
        let net = recurrent_net(shape, seed, 5, hidden);
        let u = extended_universe(&net);
        let p = plan::plan(&net, u.faults(), &mut LocalPhases::new());
        prop_assert!(p.fallback.is_empty(), "shape {shape}: recurrent suffix left a fallback");
        let tests = tests_of_len(&net, seed ^ 0xfeed, 2, 24);
        assert_engines_agree_on(&net, &u, u.faults(), &tests);
    }
}

/// Pack sizes 1, 7 and 64 plus a 65-fault remainder slice (one full
/// pack + a 1-member remainder pack) — all sliced from a single layer so
/// the plan produces exactly the intended pack shapes.
#[test]
fn pack_sizes_and_remainder_packs_are_bit_identical() {
    let net = dense_net(21, 6, 10, 4);
    let u = FaultUniverse::standard(&net);
    let last = net.layers().len() - 1;
    let last_layer: Vec<Fault> =
        u.faults().iter().filter(|f| f.site.layer() == last).copied().collect();
    assert!(last_layer.len() >= 65, "need ≥65 last-layer faults, got {}", last_layer.len());
    let tests = tests_for(&net, 22, 2);
    for k in [1usize, 7, 64, 65] {
        let subset = &last_layer[..k];
        // The plan must shape as intended: ≤64-member packs, remainder
        // split off, golden lane reserved exactly when a pack is partial.
        let p = plan::plan(&net, subset, &mut LocalPhases::new());
        assert!(p.fallback.is_empty(), "k={k}");
        let sizes: Vec<usize> = p.packs.iter().map(|pk| pk.members.len()).collect();
        match k {
            65 => assert_eq!(sizes, vec![64, 1], "k={k}"),
            _ => assert_eq!(sizes, vec![k], "k={k}"),
        }
        for pk in &p.packs {
            assert_eq!(pk.golden_lane, pk.members.len() < 64, "k={k}");
        }
        assert_engines_agree_on(&net, &u, subset, &tests);
    }
}

/// Pack sizes 1, 7 and 64 plus a 65-fault remainder slice at a recurrent
/// fault layer, for each recurrent shape: the recurrent layer feeding a
/// dense output, downstream of a dense fault layer, and as the output
/// layer itself.
#[test]
fn recurrent_pack_sizes_and_remainder_packs_are_bit_identical() {
    for shape in 0..3 {
        let net = recurrent_net(shape, 50 + shape as u64, 6, 10);
        let u = extended_universe(&net);
        let tests = tests_of_len(&net, 51, 2, 24);
        // Faults at the recurrent layer, and (shape 1) at the dense layer
        // ahead of it, so that materialization crosses the recurrent layer.
        let rec = if shape == 0 { 0 } else { 1 };
        let mut layers = vec![rec];
        if shape == 1 {
            layers.push(0);
        }
        for layer in layers {
            let at_layer: Vec<Fault> =
                u.faults().iter().filter(|f| f.site.layer() == layer).copied().collect();
            assert!(at_layer.len() >= 65, "shape {shape} layer {layer}: {}", at_layer.len());
            let mut detected = 0;
            for k in [1usize, 7, 64, 65] {
                let subset = &at_layer[..k];
                let p = plan::plan(&net, subset, &mut LocalPhases::new());
                assert!(p.fallback.is_empty(), "shape {shape} k={k}");
                let sizes: Vec<usize> = p.packs.iter().map(|pk| pk.members.len()).collect();
                match k {
                    65 => assert_eq!(sizes, vec![64, 1], "shape {shape} k={k}"),
                    _ => assert_eq!(sizes, vec![k], "shape {shape} k={k}"),
                }
                detected = assert_engines_agree_on(&net, &u, subset, &tests).detected_count();
            }
            assert!(detected > 0, "shape {shape} layer {layer}: no fault detected");
        }
    }
}

/// Collapsed universes: representative campaigns run under each engine,
/// expanded back over the full universe — expansion of bit-identical
/// inputs is bit-identical output.
#[test]
fn collapsed_universe_expansion_is_engine_invariant() {
    // Prune to make collapsing yield classes (identical-weight /
    // silent-source rules need sparsity).
    let mut net = dense_net(31, 6, 12, 4);
    snn_analyze::magnitude_prune(&mut net, 0.5);
    let u = FaultUniverse::standard(&net);
    let analysis = snn_analyze::analyze(&net, &u);
    assert!(
        !analysis.collapsed.collapses().is_empty(),
        "test needs a universe that actually collapses"
    );
    let tests = tests_for(&net, 32, 2);
    let collapsed = |engine: Engine| {
        analysis
            .collapsed
            .detect_collapsed(&net, &u, &tests, cfg_for(engine), &NullSink, &CancelToken::new())
            .unwrap()
    };
    let scalar = collapsed(Engine::Scalar);
    let packed = collapsed(Engine::Packed);
    assert_eq!(scalar.per_fault.len(), u.len());
    assert_bit_identical(&scalar, &packed);
}

/// Hand-crafted two-lane pack where exactly one lane's membrane crosses
/// threshold: a saturated synapse on a driven input diverges (and the
/// divergence propagates to the output), while the same fault kind on a
/// never-spiking input carries no traffic and stays on the golden
/// trajectory.
#[test]
fn exactly_one_lane_diverges() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut net = NetworkBuilder::new(2, LifParams { refrac_steps: 1, ..LifParams::default() })
        .dense(2)
        .dense(2)
        .build(&mut rng);
    // Layer 0 (weights [out × in], offset = out·2 + in): each hidden
    // neuron listens to one input with a sub-threshold weight — the
    // geometric sum 0.05 / (1 − leak 0.9) = 0.5 stays below θ = 1.0, so
    // the golden run never fires.
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 0 }, 0.05); // h0 ← in0 (driven)
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 1 }, 0.0);
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 2 }, 0.0);
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 3 }, 0.05); // h1 ← in1 (silent)
                                                                        // Layer 1: identity wiring at exactly threshold weight, so any
                                                                        // hidden spike propagates to the matching output.
    net.set_weight(WeightRef { layer: 1, tensor: 0, offset: 0 }, 1.0);
    net.set_weight(WeightRef { layer: 1, tensor: 0, offset: 1 }, 0.0);
    net.set_weight(WeightRef { layer: 1, tensor: 0, offset: 2 }, 0.0);
    net.set_weight(WeightRef { layer: 1, tensor: 0, offset: 3 }, 1.0);

    // max|w| = 1.0 ⇒ SynapseSatPos sticks the weight at sat_factor × 1.0
    // = 2.0 ≥ θ, firing the faulty neuron on every driven tick.
    let u = FaultUniverse::standard(&net);
    let pick = |offset: usize| {
        u.faults()
            .iter()
            .find(|f| {
                f.kind == FaultKind::SynapseSatPos
                    && f.site == FaultSite::Synapse(WeightRef { layer: 0, tensor: 0, offset })
            })
            .copied()
            .unwrap()
    };
    let diverging = pick(0); // h0 ← in0: driven every tick
    let quiet = pick(3); // h1 ← in1: never sees a spike

    // Input 0 spikes every tick; input 1 never does.
    let mut stim = vec![0.0f32; 16 * 2];
    for t in 0..16 {
        stim[t * 2] = 1.0;
    }
    let tests = vec![Tensor::from_vec(Shape::d2(16, 2), stim).unwrap()];

    let faults = [diverging, quiet];
    let p = plan::plan(&net, &faults, &mut LocalPhases::new());
    assert_eq!(p.packs.len(), 1, "both faults must share one pack");
    assert!(p.packs[0].golden_lane);

    let scalar = run(&net, Engine::Scalar, &u, &faults, &tests);
    let packed = run(&net, Engine::Packed, &u, &faults, &tests);
    assert_bit_identical(&scalar, &packed);
    assert!(packed.per_fault[0].detected, "saturated driven synapse must diverge");
    assert!(!packed.per_fault[1].detected, "saturated silent synapse must stay golden");
}

/// Two inputs spiking on every tick of a 32-tick test.
fn always_on_inputs() -> Vec<Tensor> {
    vec![Tensor::from_vec(Shape::d2(32, 2), vec![1.0; 64]).unwrap()]
}

/// A two-unit recurrent layer with LIF θ = 1.0, λ = 0.9, one refractory
/// tick. Neuron 0 (`q`) integrates in0 at 0.2 and in1 at −0.05: a golden
/// drive of 0.15 that first crosses threshold at tick 10. With the
/// inhibitory in1 synapse dead the drive is 0.2, which crosses at tick 6
/// — so the faulty membrane runs ahead of the golden one from tick 0,
/// six ticks before the spikes differ. All other weights start at zero.
fn drifting_recurrent_layer(net: &mut Network) {
    let w_in = |offset| WeightRef { layer: 0, tensor: 0, offset };
    let w_rec = |offset| WeightRef { layer: 0, tensor: 1, offset };
    for offset in 0..4 {
        net.set_weight(w_in(offset), 0.0);
        net.set_weight(w_rec(offset), 0.0);
    }
    net.set_weight(w_in(0), 0.2); // q ← in0
    net.set_weight(w_in(1), -0.05); // q ← in1 (inhibitory)
}

fn synapse_dead(u: &FaultUniverse, r: WeightRef) -> Fault {
    u.faults()
        .iter()
        .find(|f| f.kind == FaultKind::SynapseDead && f.site == FaultSite::Synapse(r))
        .copied()
        .unwrap()
}

/// Regression for the faulty neuron's state at a recurrent fault layer:
/// a weight fault that moves `q`'s membrane ticks before its first spike
/// divergence `t0`. Materialization must resume `q` from the state stage
/// A reached, not from the golden pre-state at `t0` — from there the
/// faulty neuron would not fire at `t0`, and its whole spike train would
/// shift. Covers the fault on `W_in` and on `W_rec`.
#[test]
fn recurrent_fault_layer_resumes_the_faulty_neuron_from_its_own_state() {
    let lif = LifParams { refrac_steps: 1, ..LifParams::default() };
    let mut rng = StdRng::seed_from_u64(61);
    let mut net = NetworkBuilder::new(2, lif).recurrent(2).dense(2).build(&mut rng);
    drifting_recurrent_layer(&mut net);
    // Dense output layer: identity at threshold weight, so every
    // recurrent spike reaches the matching output.
    for (offset, w) in [1.0, 0.0, 0.0, 1.0].into_iter().enumerate() {
        net.set_weight(WeightRef { layer: 1, tensor: 0, offset }, w);
    }
    let u = FaultUniverse::standard(&net);
    let tests = always_on_inputs();
    let in_fault = synapse_dead(&u, WeightRef { layer: 0, tensor: 0, offset: 1 });
    let packed = assert_engines_agree_on(&net, &u, &[in_fault], &tests);
    assert!(packed.per_fault[0].detected);

    // The same drift through W_rec: neuron 1 fires on every other tick
    // (in1 at 1.0, one refractory tick) and inhibits q through
    // W_rec[0][1] = −0.1; q's own input is 0.2. Killing the feedback
    // synapse raises q's drive on odd ticks, well before q first spikes.
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 1 }, 0.0);
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 3 }, 1.0); // 1 ← in1
    net.set_weight(WeightRef { layer: 0, tensor: 1, offset: 1 }, -0.1); // q ← 1
    let u = FaultUniverse::standard(&net);
    let rec_fault = synapse_dead(&u, WeightRef { layer: 0, tensor: 1, offset: 1 });
    let p = plan::plan(&net, &[in_fault, rec_fault], &mut LocalPhases::new());
    assert!(p.fallback.is_empty());
    let packed = assert_engines_agree_on(&net, &u, &[rec_fault], &tests);
    assert!(packed.per_fault[0].detected);
}

/// Regression for a recurrent *output* layer: `q`'s earlier spikes feed
/// back into neuron 1 (`W_rec[1][0]` = 1.0, so neuron 1 echoes `q` one
/// tick later), so the faulty output differs in neuron 1's column too.
/// The verdict needs the whole materialized layer — `q`'s column diff
/// alone would miss neuron 1's share of the distance and class diff.
#[test]
fn recurrent_output_fault_layer_counts_every_neuron() {
    let lif = LifParams { refrac_steps: 1, ..LifParams::default() };
    let mut rng = StdRng::seed_from_u64(62);
    let mut net = NetworkBuilder::new(2, lif).recurrent(2).build(&mut rng);
    drifting_recurrent_layer(&mut net);
    net.set_weight(WeightRef { layer: 0, tensor: 1, offset: 2 }, 1.0); // 1 ← q
    let u = FaultUniverse::standard(&net);
    let fault = synapse_dead(&u, WeightRef { layer: 0, tensor: 0, offset: 1 });
    let p = plan::plan(&net, &[fault], &mut LocalPhases::new());
    assert_eq!((p.packs.len(), p.fallback.len()), (1, 0));
    let packed = assert_engines_agree_on(&net, &u, &[fault], &always_on_inputs());
    let diff = packed.per_fault[0].class_diff.as_ref().unwrap();
    assert!(diff[0] != 0.0 && diff[1] != 0.0, "both neurons must change: {diff:?}");
}
