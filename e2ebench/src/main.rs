//! End-to-end request benchmark for the DES platform.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sessions|recommend|durable_buy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats passes of the workload (fresh platform, same seeded
//! request plan) until `--seconds` have passed, checks every response,
//! and prints as its last stdout line one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is a record of the run (per-pass spread, core
//! count, git sha, features, response digest). A failed correctness
//! check exits 1 without a result. See README.md beside this file.

mod drive;
mod gate;
mod inputs;
mod report;
mod spans;
mod stats;

use inputs::{Shape, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Passes a run makes at least: enough for a best set-up time, and on a
/// traced run for a traced and an untraced pair.
fn min_passes(trace: bool) -> usize {
    if trace {
        4
    } else {
        3
    }
}

/// Run passes of `shape` until `seconds` have passed. On a traced run,
/// odd passes are traced and even ones are not, so the two can be
/// compared.
fn run(args: &Args, shape: Shape) -> Result<Vec<drive::Pass>, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<drive::Pass> = Vec::new();
    while passes.len() < min_passes(args.trace) || start.elapsed() < budget {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = drive::pass(args.workload, shape, args.seed, traced);
        pass.gate
            .verdict()
            .map_err(|e| format!("pass {}: {e}", passes.len()))?;
        if let Some(first) = passes.first() {
            if first.gate.digest() != pass.gate.digest() {
                return Err(format!(
                    "pass {} answered differently from pass 0 (digest {:016x} vs {:016x})",
                    passes.len(),
                    pass.gate.digest(),
                    first.gate.digest()
                ));
            }
        }
        passes.push(pass);
    }
    Ok(passes)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, Shape::of(args.workload)) {
        Ok(passes) => {
            let report = report::Report::new(&args.workload, args.seed, args.trace, &passes);
            if args.trace {
                if let Err(e) = report.write_spans(&passes) {
                    eprintln!("e2ebench: could not write spans: {e}");
                    return ExitCode::FAILURE;
                }
            }
            eprint!("{}", report.table());
            println!("{}", report.record_line());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: correctness gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 3,
            seconds: 0,
            trace,
        }
    }

    #[test]
    fn parses_the_command_line() {
        let argv: Vec<String> = "--workload durable_buy --seed 9 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("parses");
        assert_eq!(a.workload, Workload::DurableBuy);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_err());
        assert!(parse_args(&argv[..4]).is_err(), "--seconds is required");
    }

    #[test]
    fn every_workload_emits_every_named_metric_with_its_unit() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let passes = run(&toy(w, trace), Shape::toy(w)).expect("toy run passes the gate");
                let r = report::Report::new(&w, 3, trace, &passes);
                let names = if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                let got = r.metrics();
                assert_eq!(got.len(), names.len(), "{w:?} trace={trace}");
                for ((name, unit), m) in names.iter().zip(got) {
                    assert_eq!((*name, *unit), (m.name, m.unit));
                    assert!(m.value.is_finite(), "{w:?} {name} = {}", m.value);
                }
                let line = r.result_line();
                for (name, unit) in names {
                    assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
                    assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{unit}");
                }
            }
        }
    }

    #[test]
    fn the_gate_trips_on_a_wrong_expectation() {
        gate::SABOTAGE.set(true);
        for w in Workload::ALL {
            let err =
                run(&toy(w, false), Shape::toy(w)).expect_err("sabotaged expectation must fail");
            assert!(err.contains("expected Logged"), "{err}");
        }
        gate::SABOTAGE.set(false);
    }
}
