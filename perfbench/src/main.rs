//! End-to-end and per-layer benchmark of the RUPAM simulator and live
//! service.
//!
//! ```text
//! perfbench --workload <sim-deep|serve-backlog> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! attached; `--trace 1` runs the traced pass that reports per-layer
//! metrics. Both run the workload's correctness checks; a failed check
//! exits 1. The last line of stdout is the result as one JSON object.

mod gauge;
mod layers;
mod output;
mod probe;
mod serve;
mod sim;
mod stats;

use std::process::exit;

use output::Output;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sim-deep|serve-backlog> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    let mut out = Output::default();
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("sim-deep", false) => sim::end_to_end(seed, secs, &mut out),
        ("sim-deep", true) => sim::per_layer(seed, secs, &mut out),
        ("serve-backlog", false) => serve::end_to_end(seed, secs, &mut out),
        ("serve-backlog", true) => serve::per_layer(seed, secs, &mut out),
        _ => usage(),
    }
    out.print();
    if !out.correct() {
        exit(1);
    }
}
