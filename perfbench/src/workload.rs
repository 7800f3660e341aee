//! The workloads: their set-up, one measured pass, and the checks that
//! every pass and every run reproduces the right outputs.
//!
//! The three example nets are the system under test. They are always
//! trained from [`NET_SEED`], and every workload verifies the test
//! generated at that seed, so every run measures the same nets and tests.
//! The workload seed picks the inputs: the fault samples and the subsets
//! the oracles re-check.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_bench::{Benchmark, BenchmarkKind, PrepConfig, Scale};
use snn_faults::criticality::{self, CriticalityConfig, CriticalityReport};
use snn_faults::{
    verdict_digest, CampaignOutcome, CancelToken, Engine, Fault, FaultSimConfig, FaultSimulator,
    FaultUniverse, NullSink,
};
use snn_model::RecordOptions;
use snn_tensor::Tensor;
use snn_testgen::{GeneratedTest, TestGenConfig, TestGenerator};

use crate::digest::Fnv;
use crate::stats::{ratio, Tally};

/// Training seed of every net.
pub const NET_SEED: u64 = 42;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A packed-engine campaign over the NMNIST-like net's whole universe.
    CampaignDense,
    /// Campaigns on the IBM-like (conv) and SHD-like (recurrent) nets,
    /// whose faults mostly fall back to the scalar engine.
    CampaignFallback,
    /// Critical/benign labelling of a fault sample on the NMNIST-like net.
    Criticality,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] =
        [Workload::CampaignDense, Workload::CampaignFallback, Workload::Criticality];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignDense => "campaign-dense",
            Workload::CampaignFallback => "campaign-fallback",
            Workload::Criticality => "criticality",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The nets the workload runs on.
    pub fn kinds(self) -> &'static [BenchmarkKind] {
        match self {
            Workload::CampaignDense | Workload::Criticality => &[BenchmarkKind::Nmnist],
            Workload::CampaignFallback => &[BenchmarkKind::Ibm, BenchmarkKind::Shd],
        }
    }
}

/// Lowercase net name used in metric names.
pub fn net_name(kind: BenchmarkKind) -> &'static str {
    match kind {
        BenchmarkKind::Nmnist => "nmnist",
        BenchmarkKind::Ibm => "ibm",
        BenchmarkKind::Shd => "shd",
    }
}

/// How much work each workload does. [`Size::full`] is the benchmark;
/// [`Size::tiny`] runs the same code paths in seconds for the smoke test.
#[derive(Debug, Clone)]
pub struct Size {
    /// Training effort of the nets.
    pub prep: PrepConfig,
    /// Test-generation preset.
    pub gen: TestGenConfig,
    /// NMNIST-like faults in `campaign-dense` (`None`: the whole universe).
    pub dense_faults: Option<usize>,
    /// IBM-like faults sampled for `campaign-fallback`.
    pub ibm_faults: usize,
    /// SHD-like faults in `campaign-fallback` (`None`: the whole universe).
    pub shd_faults: Option<usize>,
    /// Faults sampled for `criticality`.
    pub criticality_faults: usize,
    /// Faults per net the scalar oracle re-checks after a campaign run.
    pub oracle_faults: usize,
    /// Faults the accuracy-delta oracle re-labels after a criticality run.
    pub criticality_oracle: usize,
    /// Longest input duration the traced sweep's `T_in,min` calibration
    /// may reach.
    pub calibrate_max: usize,
    /// Set-ups per run at least (their median is `setup_s`).
    pub setups: usize,
    /// Seconds over which set-ups are repeated once `setups` are done.
    pub setup_seconds: f64,
    /// Passes measured even when the window has already closed.
    pub min_passes: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            prep: PrepConfig::fast(),
            gen: TestGenConfig::fast(),
            dense_faults: None,
            ibm_faults: 2_000,
            shd_faults: None,
            criticality_faults: 4_000,
            oracle_faults: 256,
            criticality_oracle: 24,
            calibrate_max: 512,
            setups: 11,
            setup_seconds: 4.0,
            // A campaign-fallback pass takes about 9 s: three passes keep
            // one slow pass from setting the median.
            min_passes: 3,
        }
    }

    /// A seconds-long size exercising every code path, for tests.
    pub fn tiny() -> Size {
        Size {
            prep: PrepConfig { train_samples: 8, test_samples: 4, epochs: 1, batch: 4 },
            gen: TestGenConfig {
                stage1_steps: 4,
                stage2_steps: 2,
                t_in_min: Some(6),
                max_iterations: 1,
                max_growths: 0,
                ..TestGenConfig::fast()
            },
            dense_faults: Some(300),
            ibm_faults: 120,
            shd_faults: Some(300),
            criticality_faults: 120,
            oracle_faults: 16,
            criticality_oracle: 4,
            calibrate_max: 16,
            setups: 2,
            setup_seconds: 0.0,
            min_passes: 2,
        }
    }
}

/// Deterministic seed for one (workload seed, net, purpose) triple.
pub fn derive_seed(seed: u64, kind: BenchmarkKind, stream: u64) -> u64 {
    let tag = BenchmarkKind::ALL.iter().position(|&k| k == kind).unwrap_or(0) as u64;
    splitmix64(splitmix64(seed) ^ splitmix64((tag << 8) | stream))
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_GENERATE: u64 = 1;
const STREAM_FAULTS: u64 = 2;
const STREAM_ORACLE: u64 = 3;

/// One net of a workload with its fault set and the test it is verified
/// with.
pub struct NetCase {
    /// Which net.
    pub kind: BenchmarkKind,
    /// The trained net and its dataset.
    pub bench: Benchmark,
    /// The net's standard fault universe.
    pub universe: FaultUniverse,
    /// The faults this workload simulates.
    pub faults: Vec<Fault>,
    /// The test generated at [`NET_SEED`].
    pub test: GeneratedTest,
    /// The test's assembled stimulus.
    pub stimulus: Tensor,
}

/// Everything a workload's passes read.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// One entry per net, in [`Workload::kinds`] order.
    pub cases: Vec<NetCase>,
    /// Dataset inputs labelled by `criticality` (empty elsewhere).
    pub inputs: Vec<Tensor>,
}

/// Trains one net. Training is deterministic in [`NET_SEED`].
pub fn prepare(kind: BenchmarkKind, size: &Size) -> Benchmark {
    Benchmark::prepare(kind, Scale::Repro, NET_SEED, size.prep)
}

/// Generates, at [`NET_SEED`], the test the workloads verify on `bench`.
pub fn generate(bench: &Benchmark, size: &Size) -> GeneratedTest {
    let mut rng = StdRng::seed_from_u64(derive_seed(NET_SEED, bench.kind, STREAM_GENERATE));
    TestGenerator::new(&bench.net, size.gen.clone()).generate(&mut rng)
}

/// Seeded sample of `n` faults that keeps every layer's share of the
/// universe exact (largest-remainder quotas), in id order. A uniform draw
/// lets the share of the slow conv faults swing by several percent from
/// seed to seed, and the campaign's cost with it.
pub fn stratified_sample(universe: &FaultUniverse, n: usize, rng: &mut StdRng) -> Vec<Fault> {
    use rand::seq::SliceRandom;
    let total = universe.len();
    let n = n.min(total);
    let mut by_layer: BTreeMap<usize, Vec<Fault>> = BTreeMap::new();
    for f in universe.faults() {
        by_layer.entry(f.site.layer()).or_default().push(*f);
    }
    let mut quotas: Vec<(usize, usize)> =
        by_layer.values().map(|fs| (n * fs.len() / total, n * fs.len() % total)).collect();
    let mut order: Vec<usize> = (0..quotas.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(quotas[i].1));
    let left = n - quotas.iter().map(|q| q.0).sum::<usize>();
    for &i in order.iter().take(left) {
        quotas[i].0 += 1;
    }
    let mut chosen: Vec<Fault> = by_layer
        .into_values()
        .zip(quotas)
        .flat_map(|(mut fs, (quota, _))| {
            fs.shuffle(rng);
            fs.truncate(quota);
            fs
        })
        .collect();
    chosen.sort_unstable_by_key(|f| f.id);
    chosen
}

fn fault_set(
    universe: &FaultUniverse,
    n: Option<usize>,
    seed: u64,
    kind: BenchmarkKind,
) -> Vec<Fault> {
    match n {
        None => universe.faults().to_vec(),
        Some(n) => {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, kind, STREAM_FAULTS));
            stratified_sample(universe, n, &mut rng)
        }
    }
}

/// Builds a workload's inputs: trains its nets, enumerates their fault
/// universes and draws the fault sets. `tests` holds the test to verify
/// for each net, in [`Workload::kinds`] order, as [`Setup::tests`] returns
/// them; with `None` they are generated.
pub fn setup(workload: Workload, seed: u64, size: &Size, tests: Option<&[GeneratedTest]>) -> Setup {
    let cases: Vec<NetCase> = workload
        .kinds()
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let bench = prepare(kind, size);
            let universe = FaultUniverse::standard(&bench.net);
            let n = match (workload, kind) {
                (Workload::CampaignDense, _) => size.dense_faults,
                (Workload::CampaignFallback, BenchmarkKind::Shd) => size.shd_faults,
                (Workload::CampaignFallback, _) => Some(size.ibm_faults),
                (Workload::Criticality, _) => Some(size.criticality_faults),
            };
            let faults = fault_set(&universe, n, seed, kind);
            let test = match tests.and_then(|t| t.get(i)) {
                Some(t) => t.clone(),
                None => generate(&bench, size),
            };
            let stimulus = test.assembled();
            NetCase { kind, bench, universe, faults, test, stimulus }
        })
        .collect();
    let inputs = match workload {
        Workload::Criticality => cases[0].bench.test_inputs(),
        _ => Vec::new(),
    };
    Setup { workload, seed, cases, inputs }
}

impl Setup {
    /// The tests the set-up verifies, one per net, for reuse by a later
    /// [`setup`].
    pub fn tests(&self) -> Vec<GeneratedTest> {
        self.cases.iter().map(|c| c.test.clone()).collect()
    }
}

/// Fingerprint of a set-up: nets, fault sets and generated tests.
pub fn setup_fingerprint(setup: &Setup) -> u64 {
    let mut h = Fnv::default();
    for case in &setup.cases {
        for layer in case.bench.net.layers() {
            h.bytes(format!("{layer:?}").as_bytes());
        }
        for f in &case.faults {
            h.u64(f.id as u64);
        }
        h.u64(test_fingerprint(&case.test));
    }
    for input in &setup.inputs {
        h.floats(input.as_slice());
    }
    h.finish()
}

/// What one pass produced.
pub enum PassOutput {
    /// Campaign workloads: one outcome per net.
    Campaigns(Vec<CampaignOutcome>),
    /// `criticality`: the labels.
    Labels(CriticalityReport),
}

/// The campaign configuration every workload uses.
pub fn campaign_config(threads: usize, engine: Engine) -> FaultSimConfig {
    FaultSimConfig { threads, engine: Some(engine), ..FaultSimConfig::default() }
}

/// Runs `engine_detect` with `engine` on the net's test over `faults`.
///
/// # Errors
///
/// The campaign's error, with the net it happened on.
pub fn campaign(
    case: &NetCase,
    faults: &[Fault],
    threads: usize,
    engine: Engine,
) -> Result<CampaignOutcome, String> {
    snn_batch::engine_detect(
        &case.bench.net,
        campaign_config(threads, engine),
        &case.universe,
        faults,
        std::slice::from_ref(&case.stimulus),
        &NullSink,
        &CancelToken::new(),
    )
    .map_err(|e| format!("{} campaign failed: {e}", case.kind.name()))
}

/// Runs one measured pass.
///
/// # Errors
///
/// A campaign error, with the net it happened on.
pub fn run_pass(setup: &Setup, threads: usize) -> Result<PassOutput, String> {
    Ok(match setup.workload {
        Workload::CampaignDense | Workload::CampaignFallback => PassOutput::Campaigns(
            setup
                .cases
                .iter()
                .map(|c| campaign(c, &c.faults, threads, Engine::Auto))
                .collect::<Result<_, _>>()?,
        ),
        Workload::Criticality => {
            let case = &setup.cases[0];
            PassOutput::Labels(criticality::classify(
                &case.bench.net,
                &case.universe,
                &case.faults,
                &setup.inputs,
                CriticalityConfig { threads, max_samples: None },
            ))
        }
    })
}

/// Calls one pass makes (each counts as one attempted operation).
pub fn calls_per_pass(setup: &Setup) -> u64 {
    match setup.workload {
        Workload::Criticality => 1,
        _ => setup.cases.len() as u64,
    }
}

/// Faults a pass gives a verdict on.
pub fn faults_per_pass(setup: &Setup) -> usize {
    setup.cases.iter().map(|c| c.faults.len()).sum()
}

/// Bit-exact fingerprint of a pass's outputs; re-passes at one seed must
/// agree on it.
pub fn pass_fingerprint(out: &PassOutput) -> u64 {
    let mut h = Fnv::default();
    match out {
        PassOutput::Campaigns(outcomes) => {
            outcomes.iter().for_each(|o| h.u64(verdict_digest(&o.per_fault)));
        }
        PassOutput::Labels(report) => report.critical.iter().for_each(|&c| h.u64(u64::from(c))),
    }
    h.finish()
}

/// Bit-exact fingerprint of a generated test: its chunks and its
/// activation mask.
pub fn test_fingerprint(test: &GeneratedTest) -> u64 {
    let mut h = Fnv::default();
    for chunk in &test.chunks {
        h.u64(chunk.len() as u64);
        h.floats(chunk.as_slice());
    }
    for &a in &test.activated {
        h.u64(u64::from(a));
    }
    h.finish()
}

/// Generation-quality and coverage figures of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Total length in ticks of the tests the workload verifies.
    pub test_ticks: f64,
    /// Neurons the tests activate ÷ neurons of their nets.
    pub activation: f64,
    /// Detected ÷ simulated faults (on `criticality`: of the critical
    /// faults).
    pub fault_coverage: f64,
}

fn test_quality<'a>(tests: impl Iterator<Item = &'a GeneratedTest>) -> (f64, f64) {
    let (mut ticks, mut active, mut neurons) = (0usize, 0usize, 0usize);
    for t in tests {
        ticks += t.test_steps();
        active += t.activated_count();
        neurons += t.activated.len();
    }
    (ticks as f64, ratio(active, neurons))
}

/// Picks `n` seeded indices of `0..len`, ascending.
pub fn oracle_subset(len: usize, n: usize, seed: u64, kind: BenchmarkKind) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut idx: Vec<usize> = (0..len).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(derive_seed(seed, kind, STREAM_ORACLE)));
    let mut chosen: Vec<usize> = idx.into_iter().take(n.min(len)).collect();
    chosen.sort_unstable();
    chosen
}

/// Scalar-engine outcome for `faults`, the oracle the packed engine must
/// match bit for bit.
pub fn scalar_campaign(
    case: &NetCase,
    faults: &[Fault],
    threads: usize,
) -> Result<CampaignOutcome, String> {
    FaultSimulator::new(&case.bench.net, campaign_config(threads, Engine::Scalar))
        .detect_with(
            &case.universe,
            faults,
            std::slice::from_ref(&case.stimulus),
            &NullSink,
            &CancelToken::new(),
        )
        .map_err(|e| format!("{} scalar campaign failed: {e}", case.kind.name()))
}

/// The checks after the measuring window: the oracles each workload's
/// outputs are compared against, and the quality of the verified tests.
/// Each check and each call it makes is recorded in `tally`.
pub fn finish(
    setup: &Setup,
    last: &PassOutput,
    size: &Size,
    threads: usize,
    tally: &mut Tally,
) -> Quality {
    match last {
        PassOutput::Campaigns(outcomes) => finish_campaigns(setup, outcomes, size, threads, tally),
        PassOutput::Labels(report) => finish_criticality(setup, report, size, threads, tally),
    }
}

/// Re-simulates a seeded subset of each campaign with the scalar engine;
/// its verdict digest must equal the measured campaign's on those faults.
fn finish_campaigns(
    setup: &Setup,
    outcomes: &[CampaignOutcome],
    size: &Size,
    threads: usize,
    tally: &mut Tally,
) -> Quality {
    let (test_ticks, activation) = test_quality(setup.cases.iter().map(|c| &c.test));
    let (mut detected, mut total) = (0, 0);
    for (case, outcome) in setup.cases.iter().zip(outcomes) {
        detected += outcome.detected_count();
        total += outcome.per_fault.len();
        let idx = oracle_subset(case.faults.len(), size.oracle_faults, setup.seed, case.kind);
        let subset: Vec<Fault> = idx.iter().map(|&i| case.faults[i]).collect();
        let measured: Vec<_> = idx.iter().map(|&i| outcome.per_fault[i].clone()).collect();
        tally.record(scalar_campaign(case, &subset, threads).and_then(|scalar| {
            let (s, m) = (verdict_digest(&scalar.per_fault), verdict_digest(&measured));
            if s == m {
                Ok(())
            } else {
                let n = subset.len();
                Err(format!(
                    "{}: scalar digest {s:016x} != {m:016x} on {n} faults",
                    case.kind.name()
                ))
            }
        }));
    }
    Quality { test_ticks, activation, fault_coverage: ratio(detected, total) }
}

/// Measures how many critical faults the test detects, and re-labels a
/// seeded subset with `accuracy_delta`, which must agree with `classify`.
fn finish_criticality(
    setup: &Setup,
    report: &CriticalityReport,
    size: &Size,
    threads: usize,
    tally: &mut Tally,
) -> Quality {
    let case = &setup.cases[0];
    let (test_ticks, activation) = test_quality(std::iter::once(&case.test));
    let outcome = campaign(case, &case.faults, threads, Engine::Auto);
    let mut fault_coverage = 0.0;
    if let Ok(o) = &outcome {
        let caught =
            o.per_fault.iter().zip(&report.critical).filter(|(o, &c)| c && o.detected).count();
        fault_coverage = ratio(caught, report.critical_count());
    }
    tally.record(outcome.map(drop));
    let net = &case.bench.net;
    let predictions: Vec<usize> = setup
        .inputs
        .iter()
        .map(|x| net.forward(x, RecordOptions::spikes_only()).predict())
        .collect();
    for i in oracle_subset(case.faults.len(), size.criticality_oracle, setup.seed, case.kind) {
        let fault = &case.faults[i];
        let delta =
            criticality::accuracy_delta(net, &case.universe, fault, &setup.inputs, &predictions);
        tally.record(if (delta > 0.0) == report.critical[i] {
            Ok(())
        } else {
            Err(format!("fault {}: label disagrees with accuracy delta", fault.id))
        });
    }
    Quality { test_ticks, activation, fault_coverage }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_sample_keeps_layer_shares() {
        let size = Size::tiny();
        let bench = prepare(BenchmarkKind::Ibm, &size);
        let universe = FaultUniverse::standard(&bench.net);
        let n = 1_000;
        let chosen = stratified_sample(&universe, n, &mut StdRng::seed_from_u64(9));
        assert_eq!(chosen.len(), n);
        assert!(chosen.windows(2).all(|w| w[0].id < w[1].id), "distinct, in id order");
        let share = |faults: &[Fault], layer: usize| {
            faults.iter().filter(|f| f.site.layer() == layer).count() as f64 / faults.len() as f64
        };
        for layer in [1, 3, 4] {
            let want = share(universe.faults(), layer);
            assert!((share(&chosen, layer) - want).abs() <= 1.0 / n as f64, "layer {layer}");
        }
        let again = stratified_sample(&universe, n, &mut StdRng::seed_from_u64(9));
        assert_eq!(chosen, again);
    }
}
