//! Fault planning and lane assignment: which faults the packed engine
//! can take, grouped into packs of at most 64 compatible variants.
//!
//! A fault is *packable* when its site lies in the network's trailing run
//! of dense and recurrent layers (the **packable suffix**): from the
//! fault layer onward every layer is a weight matrix (plus, for a
//! recurrent layer, a feedback matrix) over binary spikes, so each
//! variant's divergence from the golden run can be carried as one bit
//! lane in `u64` spike words. Faults outside the suffix (conv/pool sites,
//! or dense/recurrent sites with a conv or pool layer after them) fall
//! back to the scalar engine.
//!
//! Packs group packable faults by their fault layer — every member of a
//! pack starts diverging at the same layer, so one packed sweep over the
//! suffix serves all of them. Lane assignment is positional: member `i`
//! sits at lane `i`, shifted up by one when the pack reserves lane 0 for
//! the golden self-check (packs with fewer than 64 members do; a full
//! 64-member pack uses every lane for variants).

use crate::Fault;
use snn_model::{Layer, LifParams, Network};
use snn_obs::phase::{LocalPhases, Phase};
use snn_tensor::packed::LANES;
use snn_tensor::Tensor;

/// `true` for a layer the packed kernel can sweep: dense or recurrent.
pub(crate) fn packable(layer: &Layer) -> bool {
    matches!(layer, Layer::Dense(_) | Layer::Recurrent(_))
}

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

/// Index of the first layer of the network's packable suffix: the
/// smallest `s` such that every layer in `s..len` is dense or recurrent.
/// Equals `len` when the last layer is neither (empty suffix — nothing
/// is packable).
pub fn packed_suffix_start(net: &Network) -> usize {
    let layers = net.layers();
    let mut s = layers.len();
    while s > 0 && packable(&layers[s - 1]) {
        s -= 1;
    }
    s
}

/// One pack: up to 64 fault variants confined to the same layer, each
/// assigned a bit lane of the packed spike words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pack {
    /// Layer every member fault is confined to.
    pub layer: usize,
    /// Member faults as indices into the campaign's fault slice, in lane
    /// order.
    pub members: Vec<usize>,
    /// `true` when lane 0 is reserved for a fault-free golden self-check
    /// (members then occupy lanes `1..=len`). Reserved whenever the pack
    /// is not full — the check costs nothing (golden bits are broadcast
    /// anyway) and lets debug builds assert the golden lane never
    /// diverges.
    pub golden_lane: bool,
}

impl Pack {
    /// Bit lane of member `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `i` is not a member index.
    pub fn lane(&self, i: usize) -> u32 {
        debug_assert!(i < self.members.len(), "member index out of range");
        // members.len() + golden ≤ 64, so the lane always fits.
        u32::try_from(i + usize::from(self.golden_lane)).unwrap_or(u32::MAX)
    }

    /// Occupied lanes: members plus the golden lane when reserved.
    pub fn lanes(&self) -> usize {
        self.members.len() + usize::from(self.golden_lane)
    }
}

/// The engine's split of a campaign fault list: packs for the packed
/// kernel plus the scalar-fallback remainder. Indices refer to the fault
/// slice the plan was built from; every index appears exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// First layer of the packable suffix (see [`packed_suffix_start`]).
    pub suffix_start: usize,
    /// Packs in ascending fault-layer order, members in supplied order.
    pub packs: Vec<Pack>,
    /// Faults the packed kernel cannot take, in supplied order.
    pub fallback: Vec<usize>,
}

impl FaultPlan {
    /// The scalar engine's plan: no packs, every one of `faults` faults in
    /// the scalar set. Without packs nothing reads `suffix_start`.
    pub(crate) fn scalar(faults: usize) -> Self {
        FaultPlan { suffix_start: 0, packs: Vec::new(), fallback: (0..faults).collect() }
    }

    /// Total faults assigned to packs.
    pub fn packed_faults(&self) -> usize {
        self.packs.iter().map(|p| p.members.len()).sum()
    }
}

/// Plans `faults` over `net`: partitions into packable/fallback, groups
/// packable faults by fault layer, chunks each group into packs of at
/// most 64 and assigns lanes. Records its two stages into `local` as the
/// `pack.plan` / `pack.assign` kernel phases.
pub fn plan(net: &Network, faults: &[Fault], local: &mut LocalPhases) -> FaultPlan {
    use snn_obs::clock::monotonic;

    // Stage 1 — partition by packability and group by fault layer.
    // Layer-indexed vectors (not a hash map) keep iteration order
    // deterministic.
    let plan_started = monotonic();
    let suffix_start = packed_suffix_start(net);
    let num_layers = net.layers().len();
    let mut by_layer: Vec<Vec<usize>> = vec![Vec::new(); num_layers];
    let mut fallback = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        let layer = fault.site.layer();
        if layer >= suffix_start && layer < num_layers {
            by_layer[layer].push(i);
        } else {
            fallback.push(i);
        }
    }
    let assign_started = monotonic();
    local.add(Phase::PackPlan, assign_started.saturating_sub(plan_started));

    // Stage 2 — chunk each layer group into packs and assign lanes.
    let mut packs = Vec::new();
    for (layer, group) in by_layer.iter().enumerate() {
        for chunk in group.chunks(LANES) {
            packs.push(Pack { layer, members: chunk.to_vec(), golden_lane: chunk.len() < LANES });
        }
    }
    local.add(Phase::PackAssign, monotonic().saturating_sub(assign_started));

    FaultPlan { suffix_start, packs, fallback }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultModelConfig, FaultSite, FaultUniverse};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn dense_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        NetworkBuilder::new(4, LifParams::default()).dense(6).dense(3).build(&mut rng)
    }

    #[test]
    fn all_dense_network_has_full_suffix_and_no_fallback() {
        let net = dense_net();
        assert_eq!(packed_suffix_start(&net), 0);
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), &mut LocalPhases::new());
        assert!(p.fallback.is_empty());
        assert_eq!(p.packed_faults(), u.len());
        // Every index appears exactly once, and packs are ≤ 64 wide.
        let mut seen: Vec<usize> = p.packs.iter().flat_map(|pk| pk.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..u.len()).collect::<Vec<_>>());
        for pk in &p.packs {
            assert!(pk.members.len() <= LANES);
            assert_eq!(pk.golden_lane, pk.members.len() < LANES);
            assert!(pk.lanes() <= LANES);
        }
    }

    #[test]
    fn lane_assignment_shifts_past_the_golden_lane() {
        let partial = Pack { layer: 0, members: vec![5, 9], golden_lane: true };
        assert_eq!(partial.lane(0), 1);
        assert_eq!(partial.lane(1), 2);
        assert_eq!(partial.lanes(), 3);
        let full = Pack { layer: 0, members: (0..LANES).collect(), golden_lane: false };
        assert_eq!(full.lane(0), 0);
        assert_eq!(full.lane(63), 63);
        assert_eq!(full.lanes(), LANES);
    }

    #[test]
    fn conv_prefix_faults_fall_back() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .dense(5)
            .build(&mut rng);
        assert_eq!(packed_suffix_start(&net), 1);
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), &mut LocalPhases::new());
        assert!(!p.fallback.is_empty());
        assert!(!p.packs.is_empty());
        for &i in &p.fallback {
            assert_eq!(u.faults()[i].site.layer(), 0);
        }
        for pk in &p.packs {
            assert_eq!(pk.layer, 1);
        }
        assert_eq!(p.packed_faults() + p.fallback.len(), u.len());
    }

    #[test]
    fn recurrent_prefix_faults_pack() {
        // The SHD-like shape: recurrent layer then dense readout. Both
        // layers are in the packable suffix, so nothing falls back, and
        // both weight matrices (W_in, W_rec) of the recurrent layer pack.
        let mut rng = StdRng::seed_from_u64(3);
        let net =
            NetworkBuilder::new(5, LifParams::default()).recurrent(6).dense(3).build(&mut rng);
        assert_eq!(packed_suffix_start(&net), 0);
        let u = FaultUniverse::with_config(&net, FaultModelConfig::default(), true, &[0, 7]);
        let p = plan(&net, u.faults(), &mut LocalPhases::new());
        assert!(p.fallback.is_empty());
        assert_eq!(p.packed_faults(), u.len());
        let packed_tensors =
            |tensor| {
                p.packs.iter().filter(|pk| pk.layer == 0).flat_map(|pk| &pk.members).any(
                    |&i| matches!(u.faults()[i].site, FaultSite::Synapse(r) if r.tensor == tensor),
                )
            };
        assert!(packed_tensors(0) && packed_tensors(1));
    }

    #[test]
    fn conv_then_recurrent_splits_at_the_recurrent_layer() {
        // The suffix starts after the last non-packable layer: conv faults
        // fall back, recurrent and dense faults pack.
        let mut rng = StdRng::seed_from_u64(4);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .recurrent(4)
            .dense(3)
            .build(&mut rng);
        assert_eq!(packed_suffix_start(&net), 1);
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), &mut LocalPhases::new());
        assert!(p.fallback.iter().all(|&i| u.faults()[i].site.layer() == 0));
        assert_eq!(p.packs.iter().map(|pk| pk.layer).min(), Some(1));
        assert_eq!(p.packed_faults() + p.fallback.len(), u.len());
    }

    #[test]
    fn non_dense_last_layer_packs_nothing() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .avg_pool(2)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        assert_eq!(packed_suffix_start(&net), net.layers().len());
        let p = plan(&net, u.faults(), &mut LocalPhases::new());
        assert!(p.packs.is_empty());
        assert_eq!(p.fallback.len(), u.len());
    }

    #[test]
    fn packs_group_by_fault_layer() {
        let net = dense_net();
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), &mut LocalPhases::new());
        for pk in &p.packs {
            for &i in &pk.members {
                assert_eq!(u.faults()[i].site.layer(), pk.layer);
            }
        }
    }
}
