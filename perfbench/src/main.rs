//! `gridagg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured for about `--seconds`;
//! with `--trace 1` they are the per-layer ones of one traced pass,
//! whose spans go to `perfbench/out/`. Exits 1 when an output check
//! fails and 2 on a usage or measurement error.

use std::path::PathBuf;
use std::process::exit;

use gridagg_perfbench::report::Outcome;
use gridagg_perfbench::{cluster, metrics, sim};

const USAGE: &str = "usage: gridagg-perfbench --workload <sim-scale|fig-sweep|cluster-loopback> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: sim::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("bad --seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !["sim-scale", "fig-sweep", "cluster-loopback"].contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    let spans = PathBuf::from("perfbench/out")
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let mut out = Outcome::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("sim-scale", false) => sim::sim_scale(args.seed, args.seconds, &mut out),
        ("fig-sweep", false) => sim::fig_sweep(args.seed, args.seconds, &mut out),
        ("cluster-loopback", false) => cluster::timed(args.seed, args.seconds, &mut out),
        ("sim-scale", true) => sim::traced(false, args.seed, &mut out, &spans),
        ("fig-sweep", true) => sim::traced(true, args.seed, &mut out, &spans),
        ("cluster-loopback", true) => cluster::traced(args.seed, &mut out, &spans),
        _ => unreachable!("workload validated by parse"),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        exit(2);
    }
    let expected: &[(&str, &str)] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    assert_eq!(
        out.names(),
        expected,
        "the workload reported another metric set"
    );
    for f in &out.check_failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    println!("{}", out.to_json());
    exit(if out.correct() { 0 } else { 1 });
}
