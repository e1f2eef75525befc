//! `perfbench`: run one SMARTFEAT benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload construct_paper|search_mix|grid_small|all \
//!     [--seed 42] [--seconds 35] [--trace 0|1] [--print-digests]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. A readable table goes to standard
//! error. `--workload all` runs each workload in a fresh child process.

use std::process::{Command, ExitCode};

use smartfeat_perfbench::check::DEFAULT_SEED;
use smartfeat_perfbench::run::{run, RunConfig};
use smartfeat_perfbench::workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <construct_paper|search_mix|grid_small|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--print-digests]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
        print_digests: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace: {other}")),
                }
            }
            "--print-digests" => args.print_digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Run every workload, each in a fresh child process so peak memory, the
/// process-wide work registry and warm caches do not carry over.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut ok = true;
    for workload in Workload::all() {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        eprintln!("== {} ==", workload.name());
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(workload.name())
            .args(&child_args)
            .status()
            .map_err(|e| format!("running {}: {e}", workload.name()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&argv) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if args.trace {
        // Before any thread starts: the pipeline reads this when a run
        // begins and then reports its stage spans in nanoseconds.
        std::env::set_var(smartfeat_obs::WALLCLOCK_ENV, "1");
    }
    let config = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed {} ({}): {} operations, {} failed",
        workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failures.len()
    );
    let walls: Vec<String> = outcome
        .pass_walls
        .iter()
        .map(|(w, k)| format!("{w:.3}@{:.3}ms", k * 1e3))
        .collect();
    eprintln!(
        "  untraced pass wall (s) @ probe round per call: {}",
        walls.join(" ")
    );
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<28} {value:>14.6} {unit}");
    }
    for (op, why) in &outcome.failures {
        eprintln!("  FAILED {op}: {why}");
    }
    if args.print_digests {
        for line in &outcome.digest_lines {
            println!("{line}");
        }
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}
