//! The per-layer breakdown: one traced sweep over the layers every
//! workload exercises, timed around calls into their public functions and
//! read from the spans and phase counters they already record.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_faults::criticality::{classify, CriticalityConfig};
use snn_faults::{verdict_digest, Engine, Fault, FaultOutcome, FaultUniverse};
use snn_model::{Network, NeuronFaultMap, RecordOptions};
use snn_obs::trace::Collector;
use snn_obs::SpanRecord;
use snn_tensor::Tensor;
use snn_testgen::calibrate_t_in_min;

use crate::report::Metric;
use crate::stats::{median, ratio, Tally};
use crate::workload::{
    campaign, derive_seed, generate, net_name, scalar_campaign, setup, test_fingerprint, NetCase,
    Size, Workload,
};

/// Kernel-phase slots reported as `faults.phase_thread_s.<slot>`.
pub const PHASE_SLOTS: [&str; 11] = [
    "inject",
    "compare",
    "fault",
    "pack.plan",
    "pack.assign",
    "pack.run",
    "forward.l0",
    "forward.l1",
    "forward.l2",
    "forward.l3",
    "forward.l4",
];

/// Summed duration per span name, counting only the outermost span of
/// each name (a span nested inside a span of the same name is already
/// covered by it). With `within`, only spans that are, or descend from, a
/// span named `within` count.
pub fn outermost_totals(
    records: &[SpanRecord],
    within: Option<&str>,
) -> BTreeMap<String, Duration> {
    let by_id: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut totals = BTreeMap::new();
    for r in records {
        let ancestors = ancestors(&by_id, r);
        if ancestors.iter().any(|a| a.name == r.name) {
            continue;
        }
        if let Some(w) = within {
            if r.name != w && !ancestors.iter().any(|a| a.name == w) {
                continue;
            }
        }
        *totals.entry(r.name.clone()).or_insert(Duration::ZERO) += r.duration();
    }
    totals
}

/// Summed duration of the spans named `name` nested inside another span
/// of that name — for `faultsim.campaign`, the packed engine's scalar
/// fallback. Nested spans inside those are not counted again.
pub fn nested_total(records: &[SpanRecord], name: &str) -> Duration {
    let by_id: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    records
        .iter()
        .filter(|r| r.name == name)
        .filter(|r| ancestors(&by_id, r).iter().filter(|a| a.name == name).count() == 1)
        .map(SpanRecord::duration)
        .sum()
}

fn ancestors<'a>(by_id: &BTreeMap<u64, &'a SpanRecord>, r: &SpanRecord) -> Vec<&'a SpanRecord> {
    let mut out = Vec::new();
    let mut next = r.parent;
    while let Some(id) = next {
        let Some(p) = by_id.get(&id) else { break };
        out.push(*p);
        next = p.parent;
    }
    out
}

/// Runs `f` with a fresh span collector installed and returns its result
/// with the spans it recorded.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    let collector = Arc::new(Collector::new());
    snn_obs::trace::install(Arc::clone(&collector));
    let out = f();
    snn_obs::trace::uninstall();
    (out, collector.drain())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median wall time of `reps` calls of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&times).unwrap_or(0.0)
}

fn secs(d: Option<&Duration>) -> f64 {
    d.map_or(0.0, Duration::as_secs_f64)
}

/// Layers of `universe` that hold faults, ascending.
fn fault_layers(universe: &FaultUniverse) -> BTreeSet<usize> {
    universe.faults().iter().map(|f| f.site.layer()).collect()
}

/// Indices of `faults` whose site lies in `layer`.
fn in_layer(faults: &[Fault], layer: usize) -> Vec<usize> {
    (0..faults.len()).filter(|&i| faults[i].site.layer() == layer).collect()
}

/// Runs the traced sweep and returns every per-layer metric except
/// `bench.trace_overhead`. Output checks are recorded in `tally`: the
/// traced generations must reproduce the set-up tests, and the scalar
/// engine must reproduce every net's packed verdict digest.
pub fn sweep(seed: u64, size: &Size, threads: usize, tally: &mut Tally) -> Vec<Metric> {
    let dense = setup(Workload::CampaignDense, seed, size, None);
    let fallback = setup(Workload::CampaignFallback, seed, size, None);
    let crit = setup(Workload::Criticality, seed, size, Some(&dense.tests()));
    let nets: Vec<&NetCase> = dense.cases.iter().chain(&fallback.cases).collect();
    let mut m = generation(&nets, seed, size, tally);
    m.extend(forward_layers(&nets));
    m.extend(packing(&dense.cases[0], &fallback.cases, threads, tally));
    m.extend(campaigns(&nets, threads, tally));
    m.extend(labelling(&crit.cases[0], &crit.inputs, threads));
    // Fault-universe enumeration, part of every set-up.
    let universe_s: f64 =
        nets.iter().map(|c| median_time(5, || drop(FaultUniverse::standard(&c.bench.net)))).sum();
    m.push(Metric::new("faults.universe_s", universe_s, "s"));
    m
}

/// One `generate` per net, traced, at the seed the set-up tests come from
/// (tracing must not change them), plus `T_in,min` calibration.
fn generation(nets: &[&NetCase], seed: u64, size: &Size, tally: &mut Tally) -> Vec<Metric> {
    let mut m = Vec::new();
    let (tests, spans) = traced(|| {
        nets.iter()
            .map(|c| {
                let (test, s) = timed(|| generate(&c.bench, size));
                m.push(Metric::new(format!("testgen.generate_s.{}", net_name(c.kind)), s, "s"));
                test
            })
            .collect::<Vec<_>>()
    });
    for (c, test) in nets.iter().zip(&tests) {
        tally.record(if test_fingerprint(&c.test) == test_fingerprint(test) {
            Ok(())
        } else {
            Err(format!("{}: traced generation differs from set-up", c.kind.name()))
        });
    }
    let gen = outermost_totals(&spans, Some("generate"));
    let calibrate: f64 = nets
        .iter()
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, c.kind, 4));
            let net = &c.bench.net;
            timed(|| calibrate_t_in_min(net, &mut rng, &size.gen, 8, size.calibrate_max)).1
        })
        .sum();
    let iterations: usize = tests.iter().map(|t| t.iterations.len()).sum();
    m.extend([
        Metric::new("testgen.stage1_s", secs(gen.get("stage1")), "s"),
        Metric::new("testgen.stage2_s", secs(gen.get("stage2")), "s"),
        Metric::new("testgen.calibrate_s", calibrate, "s"),
        Metric::new("testgen.losses_s", secs(gen.get("stage1.losses")), "s"),
        Metric::new("testgen.iterations", iterations as f64, "count"),
        Metric::new("snn.forward_s", secs(gen.get("snn.forward")), "s"),
        Metric::new("snn.backward_s", secs(gen.get("snn.backward")), "s"),
    ]);
    m
}

/// Forward simulation, one layer at a time, on each net's test.
fn forward_layers(nets: &[&NetCase]) -> Vec<Metric> {
    let mut m = Vec::new();
    let no_faults = NeuronFaultMap::new();
    let run = |net: &Network, i: usize, input: &Tensor| {
        net.forward_layer(i, input, RecordOptions::spikes_only(), &no_faults)
    };
    for c in nets {
        let net = &c.bench.net;
        let mut input = c.stimulus.clone();
        for i in 0..net.layers().len() {
            let s = median_time(15, || drop(std::hint::black_box(run(net, i, &input))));
            m.push(Metric::new(format!("snn.forward_layer_s.{}.l{i}", net_name(c.kind)), s, "s"));
            input = run(net, i, &input).output;
        }
    }
    m
}

/// Packed-engine planning on `campaign-fallback`'s fault sets, lane fill
/// and per-layer packed campaigns on `campaign-dense`'s.
fn packing(
    nmnist: &NetCase,
    fallback: &[NetCase],
    threads: usize,
    tally: &mut Tally,
) -> Vec<Metric> {
    let plan = |c: &NetCase| {
        snn_batch::plan::plan(&c.bench.net, &c.faults, &mut snn_obs::phase::LocalPhases::new())
    };
    let plan_s: f64 = fallback.iter().map(|c| median_time(5, || drop(plan(c)))).sum();
    let packed: usize = fallback.iter().map(|c| plan(c).packed_faults()).sum();
    let planned: usize = fallback.iter().map(|c| c.faults.len()).sum();
    let dense_plan = plan(nmnist);
    let lanes = dense_plan.packs.len() * snn_tensor::packed::LANES;
    let mut m = vec![
        Metric::new("batch.plan_s", plan_s, "s"),
        Metric::new("batch.packed_ratio", ratio(packed, planned), "ratio"),
        Metric::new("batch.lane_fill", ratio(dense_plan.packed_faults(), lanes), "ratio"),
    ];
    for layer in fault_layers(&nmnist.universe) {
        let subset: Vec<Fault> =
            in_layer(&nmnist.faults, layer).iter().map(|&i| nmnist.faults[i]).collect();
        let (out, s) = timed(|| campaign(nmnist, &subset, threads, Engine::Packed));
        tally.record(out.map(drop));
        m.push(Metric::new(format!("batch.packed_s.nmnist.l{layer}"), s, "s"));
    }
    m
}

/// The workload campaigns (Auto engine), traced, with their kernel phases;
/// then the scalar engine on each fault layer as the oracle.
fn campaigns(nets: &[&NetCase], threads: usize, tally: &mut Tally) -> Vec<Metric> {
    let phases = snn_obs::phase::faultsim();
    let before = phases.snapshot();
    let (auto, spans) = traced(|| {
        nets.iter().map(|c| campaign(c, &c.faults, threads, Engine::Auto)).collect::<Vec<_>>()
    });
    let delta = phases.snapshot().delta_since(&before);
    let fallback_s = nested_total(&spans, "faultsim.campaign").as_secs_f64();
    let mut m = vec![Metric::new("batch.fallback_s", fallback_s, "s")];
    let (mut detected, mut simulated) = (0, 0);
    for (c, auto) in nets.iter().zip(auto) {
        let mut scalar: Vec<Option<FaultOutcome>> = vec![None; c.faults.len()];
        for layer in fault_layers(&c.universe) {
            let idx = in_layer(&c.faults, layer);
            let subset: Vec<Fault> = idx.iter().map(|&i| c.faults[i]).collect();
            let (out, s) = timed(|| scalar_campaign(c, &subset, threads));
            let name = format!("{}.l{layer}", net_name(c.kind));
            let rate = if s > 0.0 { subset.len() as f64 / s } else { 0.0 };
            m.push(Metric::new(format!("faults.scalar_s.{name}"), s, "s"));
            m.push(Metric::new(format!("faults.scalar_faults_per_s.{name}"), rate, "1/s"));
            match out {
                Ok(o) => {
                    detected += o.detected_count();
                    simulated += o.per_fault.len();
                    for (&i, o) in idx.iter().zip(o.per_fault) {
                        scalar[i] = Some(o);
                    }
                    tally.record(Ok(()));
                }
                Err(e) => tally.record(Err(e)),
            }
        }
        tally.record(auto.and_then(|auto| {
            let scalar: Vec<FaultOutcome> =
                scalar.into_iter().collect::<Option<_>>().ok_or("scalar campaign incomplete")?;
            let (s, p) = (verdict_digest(&scalar), verdict_digest(&auto.per_fault));
            if s == p {
                Ok(())
            } else {
                Err(format!("{}: scalar digest {s:016x} != packed {p:016x}", c.kind.name()))
            }
        }));
    }
    m.push(Metric::new("faults.detect_ratio", ratio(detected, simulated), "ratio"));
    let entries: BTreeMap<String, Duration> =
        delta.entries().into_iter().map(|e| (e.name, e.total)).collect();
    for slot in PHASE_SLOTS {
        let s = secs(entries.get(&format!("phase.{slot}")));
        m.push(Metric::new(format!("faults.phase_thread_s.{slot}"), s, "s"));
    }
    m
}

/// One `classify` of the `criticality` workload's faults.
fn labelling(c: &NetCase, inputs: &[Tensor], threads: usize) -> Vec<Metric> {
    let cfg = CriticalityConfig { threads, max_samples: None };
    let (report, s) = timed(|| classify(&c.bench.net, &c.universe, &c.faults, inputs, cfg));
    let critical = ratio(report.critical_count(), report.critical.len());
    vec![
        Metric::new("faults.criticality_s", s, "s"),
        Metric::new("faults.critical_ratio", critical, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start_us: start,
            end_us: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_of_one_name_count_once() {
        // A packed campaign (10 ms) whose scalar fallback opens a nested
        // campaign (6 ms): the campaign total is 10 ms, not 16 ms.
        let records = vec![
            span(2, Some(1), "faultsim.campaign", 0, 6_000),
            span(1, None, "faultsim.campaign", 0, 10_000),
            span(3, Some(1), "batch.plan", 6_000, 7_000),
        ];
        let totals = outermost_totals(&records, None);
        assert_eq!(totals["faultsim.campaign"], Duration::from_millis(10));
        assert_eq!(totals["batch.plan"], Duration::from_millis(1));
        assert_eq!(nested_total(&records, "faultsim.campaign"), Duration::from_millis(6));
    }

    #[test]
    fn within_restricts_to_descendants() {
        let records = vec![
            span(1, None, "generate", 0, 100),
            span(2, Some(1), "snn.forward", 0, 30),
            span(3, None, "snn.forward", 200, 260),
        ];
        let totals = outermost_totals(&records, Some("generate"));
        assert_eq!(totals["snn.forward"], Duration::from_micros(30));
        assert_eq!(totals["generate"], Duration::from_micros(100));
    }
}
