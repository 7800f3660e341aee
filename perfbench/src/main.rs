//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run record, then one JSON result line
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! standard output. Exits 1 when an output check failed and 2 on bad
//! arguments.

use perfbench::report::result_line;
use perfbench::run::{run, Options};
use perfbench::workload::{Size, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options { workload, seed, seconds, trace, size: Size::full() })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&opts);
    for failure in &outcome.tally.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", outcome.record.render());
    println!(
        "{}",
        result_line(
            outcome.tally.ok(),
            outcome.tally.attempted,
            outcome.tally.failed,
            &outcome.metrics
        )
    );
    if !outcome.tally.ok() {
        std::process::exit(1);
    }
}
