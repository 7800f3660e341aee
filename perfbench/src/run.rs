//! One benchmark run: set up, measure a window of passes, check the
//! outputs and assemble the metrics and the run record.

use std::time::Instant;

use crate::layers;
use crate::report::{Metric, Record};
use crate::stats::{median, quartiles, tail, Tally};
use crate::sys;
use crate::workload::{
    calls_per_pass, faults_per_pass, finish, pass_fingerprint, run_pass, setup, setup_fingerprint,
    Setup, Size, Workload,
};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measuring window in seconds.
    pub seconds: f64,
    /// Run the traced per-layer sweep instead of the end-to-end
    /// measurement.
    pub trace: bool,
    /// Work per workload.
    pub size: Size,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Stamps and raw samples behind the metrics.
    pub record: Record,
}

/// Runs the benchmark once.
pub fn run(opts: &Options) -> Outcome {
    let threads = sys::host_cores();
    let mut tally = Tally::default();
    let mut record = Record::default();
    record
        .field("workload", opts.workload.name())
        .field("seed", opts.seed)
        .field("git_rev", sys::git_rev())
        .field("host_cores", sys::host_cores())
        .field("threads", threads)
        .field("trace", opts.trace);
    let metrics = if opts.trace {
        per_layer(opts, threads, &mut tally, &mut record)
    } else {
        end_to_end(opts, threads, &mut tally, &mut record)
    };
    record
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .field("ops_failed", tally.failed_ratio())
        .field("failures", &tally.failures);
    Outcome { tally, metrics, record }
}

/// Records `Ok` when `value` equals the first value seen in `reference`.
fn same_as_first(reference: &mut Option<u64>, value: u64, what: &str) -> Result<(), String> {
    match *reference {
        None => {
            *reference = Some(value);
            Ok(())
        }
        Some(r) if r == value => Ok(()),
        Some(r) => Err(format!("{what} fingerprint {value:016x} differs from {r:016x}")),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The engine each net's campaign resolves to.
fn engines(setup: &Setup) -> Vec<String> {
    setup
        .cases
        .iter()
        .map(|c| {
            let engine = match setup.workload {
                Workload::Criticality => "scalar".to_string(),
                _ => snn_batch::resolve_engine(&c.bench.net, None).to_string(),
            };
            format!("{}:{engine}", c.kind.name())
        })
        .collect()
}

fn end_to_end(
    opts: &Options,
    threads: usize,
    tally: &mut Tally,
    record: &mut Record,
) -> Vec<Metric> {
    let size = &opts.size;
    // Test generation is single-threaded, and its time drifts with the
    // host several times more than the rest of the set-up does. The tests
    // are generated once, before the timed set-ups, which reuse them;
    // generation itself is timed per net in the traced sweep.
    let (first, with_generation_s) = timed(|| setup(opts.workload, opts.seed, size, None));
    let tests = first.tests();
    let mut reference = Some(setup_fingerprint(&first));
    drop(first);
    let mut setup_s = Vec::new();
    let mut current = None;
    let window = Instant::now();
    while setup_s.len() < size.setups.max(1) || window.elapsed().as_secs_f64() < size.setup_seconds
    {
        drop(current.take());
        let (s, t) = timed(|| setup(opts.workload, opts.seed, size, Some(&tests)));
        setup_s.push(t);
        tally.record(same_as_first(&mut reference, setup_fingerprint(&s), "set-up"));
        current = Some(s);
    }
    let Some(setup) = current else { return Vec::new() };
    record.field("engine", engines(&setup)).field("setup_s.with_generation", with_generation_s);

    let calls = calls_per_pass(&setup);
    let mut pass_s = Vec::new();
    let mut reference = None;
    let mut last = None;
    let cpu_before = sys::cpu_time();
    let window = Instant::now();
    while pass_s.len() < size.min_passes || window.elapsed().as_secs_f64() < opts.seconds {
        let (out, s) = timed(|| run_pass(&setup, threads));
        match out {
            Ok(out) => {
                (0..calls).for_each(|_| tally.record(Ok(())));
                pass_s.push(s);
                tally.record(same_as_first(&mut reference, pass_fingerprint(&out), "pass"));
                last = Some(out);
            }
            Err(e) => {
                tally.record(Err(e));
                break;
            }
        }
    }
    let cpu = match (cpu_before, sys::cpu_time()) {
        (Some(a), Some(b)) => b.saturating_sub(a).as_secs_f64() / pass_s.len().max(1) as f64,
        _ => 0.0,
    };
    let Some(last) = last else { return Vec::new() };
    let quality = finish(&setup, &last, size, threads, tally);

    let p50 = median(&pass_s).unwrap_or(0.0);
    let tail = tail(&pass_s);
    record
        .field("setup_s", &setup_s)
        .field("pass_s", &pass_s)
        .field("pass_s.quartiles", quartiles(&pass_s).map(Vec::from))
        .field("pass_s.tail.rank", tail.map(|t| t.rank))
        .field("pass_s.tail.percentile", tail.map(|t| t.percentile))
        .field("pass_s.samples", pass_s.len())
        .field("faults_per_pass", faults_per_pass(&setup));
    vec![
        Metric::new("setup_s", median(&setup_s).unwrap_or(0.0), "s"),
        Metric::new("pass_s.p50", p50, "s"),
        Metric::new("pass_s.tail", tail.map_or(0.0, |t| t.value), "s"),
        Metric::new(
            "faults_per_s",
            if p50 > 0.0 { faults_per_pass(&setup) as f64 / p50 } else { 0.0 },
            "1/s",
        ),
        Metric::new("cpu_s", cpu, "s"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0), "MiB"),
        Metric::new("test_ticks", quality.test_ticks, "ticks"),
        Metric::new("activation", quality.activation, "ratio"),
        Metric::new("fault_coverage", quality.fault_coverage, "ratio"),
    ]
}

fn per_layer(
    opts: &Options,
    threads: usize,
    tally: &mut Tally,
    record: &mut Record,
) -> Vec<Metric> {
    let size = &opts.size;
    let setup = setup(opts.workload, opts.seed, size, None);
    record.field("engine", engines(&setup));
    // Alternate untraced and traced passes over the window; the ratio of
    // their medians is the tracing overhead.
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let mut reference = None;
    let window = Instant::now();
    while plain.is_empty() || window.elapsed().as_secs_f64() < opts.seconds {
        for spans in [false, true] {
            let collector = std::sync::Arc::new(snn_obs::trace::Collector::new());
            if spans {
                snn_obs::trace::install(std::sync::Arc::clone(&collector));
            }
            let (out, s) = timed(|| run_pass(&setup, threads));
            snn_obs::trace::uninstall();
            match out {
                Ok(out) => {
                    (0..calls_per_pass(&setup)).for_each(|_| tally.record(Ok(())));
                    tally.record(same_as_first(&mut reference, pass_fingerprint(&out), "pass"));
                    if spans { &mut with_spans } else { &mut plain }.push(s);
                }
                Err(e) => tally.record(Err(e)),
            }
        }
        if !tally.ok() {
            break;
        }
    }
    drop(setup);
    record.field("pass_s.untraced", &plain).field("pass_s.traced", &with_spans);
    let overhead = match (median(&with_spans), median(&plain)) {
        (Some(t), Some(p)) if p > 0.0 => t / p - 1.0,
        _ => 0.0,
    };
    let mut metrics = layers::sweep(opts.seed, size, threads, tally);
    metrics.push(Metric::new("bench.trace_overhead", overhead, "ratio"));
    metrics
}
